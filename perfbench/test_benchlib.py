"""Tests for the benchmark's own helpers and for BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402
import run  # noqa: E402

STATUS = """Name:\tovobench.exe
State:\tR (running)
VmPeak:\t  215204 kB
VmSize:\t  215204 kB
VmHWM:\t  120656 kB
VmRSS:\t  118312 kB
Threads:\t1
"""


def result(**over):
    r = {"correct": True, "attempted": 3, "failed": 0,
         "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    r.update(over)
    return r


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(benchlib.percentile(v, 50), 50)
        self.assertEqual(benchlib.percentile(v, 90), 90)
        self.assertEqual(benchlib.percentile(v, 99), 99)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(112), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_tail_leaves_ten_beyond(self):
        for n in range(1, 3000):
            q = benchlib.tail_percentile(n)
            if q is not None:
                self.assertGreaterEqual(n - benchlib.rank(n, q), 10)

    def test_spread(self):
        self.assertEqual(benchlib.spread([1.0] * 10), 0.0)
        v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(benchlib.spread(v), (8.25 - 2.75) / 5.5)


class Vmhwm(unittest.TestCase):
    def test_parse(self):
        self.assertEqual(benchlib.parse_vmhwm_kb(STATUS), 120656)

    def test_missing(self):
        with self.assertRaises(ValueError):
            benchlib.parse_vmhwm_kb("VmRSS:\t 12 kB\n")

    def test_this_process(self):
        with open("/proc/self/status") as f:
            self.assertGreater(benchlib.parse_vmhwm_kb(f.read()), 0)


class Names(unittest.TestCase):
    def test_valid(self):
        for n in ("setup_s", "compact.ns_per_cell_random", "exact-par2", "9a",
                  "a" * 64):
            self.assertTrue(benchlib.valid_name(n), n)

    def test_invalid(self):
        for n in ("", ".x", "_x", "-x", "a b", "a/b", "a" * 65, "é", None):
            self.assertFalse(benchlib.valid_name(n), n)

    def test_units(self):
        for u in ("ms", "s", "1/s", "count", "%", "MB"):
            self.assertTrue(benchlib.valid_unit(u), u)
        for u in ("", "a b", "x" * 17):
            self.assertFalse(benchlib.valid_unit(u), u)


class Schema(unittest.TestCase):
    def test_good(self):
        benchlib.check_result(result(), ["setup_s"])

    def test_bad(self):
        bad = [
            dict(result(), extra=1),
            result(correct=1),
            result(attempted=0),
            result(attempted=2.0),
            result(failed=-1),
            result(failed=True),
            result(metrics={}),
            result(metrics={"setup_s": {"value": 0.5}}),
            result(metrics={"setup_s": {"value": float("nan"), "unit": "s"}}),
            result(metrics={"setup_s": {"value": "1", "unit": "s"}}),
            result(metrics={"setup_s": {"value": 1.0, "unit": "a b"}}),
        ]
        for r in bad:
            with self.assertRaises(ValueError, msg=repr(r)):
                benchlib.check_result(r, ["setup_s"])

    def test_wrong_metric_set(self):
        with self.assertRaises(ValueError):
            benchlib.check_result(result(), ["setup_s", "latency_ms"])


class Spec(unittest.TestCase):
    """BENCHMARK.json obeys the limits the result schema relies on."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec),
                         {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"})

    def test_names_unique_and_valid(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(benchlib.valid_name(n), n)

    def test_metrics(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(benchlib.valid_unit(m["unit"]), m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workloads(self):
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertIn(w["name"], run.BYPASSED)


if __name__ == "__main__":
    unittest.main()
