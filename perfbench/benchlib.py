"""Helpers shared by run.py and steadiness.py: percentiles, peak-RSS
parsing, metric-name checks and the result-line schema."""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
VMHWM_RE = re.compile(r"^VmHWM:\s+(\d+)\s+kB\s*$", re.MULTILINE)

# Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def valid_name(name):
    """A metric or workload name: a letter or digit, then at most 63 of
    letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def rank(n, q):
    """1-based nearest rank of percentile q among n sorted samples."""
    # rounded first, so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    return s[rank(len(s), q) - 1]


def tail_percentile(n):
    """The highest percentile of LADDER that has at least MIN_BEYOND
    samples above its rank, or None when even the median has fewer."""
    best = None
    for q in LADDER:
        if n - rank(n, q) >= MIN_BEYOND:
            best = q
    return best


def median(values):
    return statistics.median(values)


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles, default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_vmhwm_kb(status_text):
    """Peak resident set size, in kB, from the text of /proc/<pid>/status."""
    m = VMHWM_RE.search(status_text)
    if m is None:
        raise ValueError("no VmHWM line in process status")
    return int(m.group(1))


def check_result(obj, metric_names):
    """Raise ValueError unless obj is a well-formed result line carrying
    exactly the given metrics."""
    if not isinstance(obj, dict):
        raise ValueError("result is not an object")
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(obj))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        v = obj[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError("%s is not a whole number" % key)
    if obj["attempted"] < 1:
        raise ValueError("nothing was attempted")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(metric_names):
        raise ValueError("metrics do not match the declared names")
    for name, m in metrics.items():
        if not valid_name(name):
            raise ValueError("bad metric name %r" % name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError("metric %s is not {value, unit}" % name)
        v = m["value"]
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v)):
            raise ValueError("metric %s has no finite value" % name)
        if not valid_unit(m["unit"]):
            raise ValueError("metric %s has a bad unit" % name)
