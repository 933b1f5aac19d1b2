(* The traced exact pass: the sweep Fs.run performs, driven through a
   Subset_dp instance over Compact whose two kernels are timed, with
   spans around the calls into each layer.  Engine.Par runs the kernels
   on worker domains, so each domain adds into its own accumulator; the
   calling domain sums them once the layer's workers have joined.  Only
   ovotrace.exe links this module. *)

open Ovo_core
open Exact

type acc = {
  mutable probe_s : float;
  mutable probe_calls : int;
  mutable materialise_s : float;
  mutable materialise_calls : int;
}

let all_accs = ref []
let accs_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a =
        { probe_s = 0.; probe_calls = 0; materialise_s = 0.;
          materialise_calls = 0 }
      in
      Mutex.protect accs_lock (fun () -> all_accs := a :: !all_accs);
      a)

(* Kernel totals over every domain that has run a kernel so far. *)
let totals () =
  Mutex.protect accs_lock (fun () ->
      List.fold_left
        (fun (ps, pc, ms, mc) a ->
          ( ps +. a.probe_s,
            pc + a.probe_calls,
            ms +. a.materialise_s,
            mc + a.materialise_calls ))
        (0., 0, 0., 0) !all_accs)

module Kernels = struct
  type state = Compact.state

  let cost_if_compacted ~metrics (st : Compact.state) h =
    let a = Domain.DLS.get key in
    let t0 = Report.now () in
    let w = Compact.width_if_compacted ~metrics st h in
    a.probe_s <- a.probe_s +. (Report.now () -. t0);
    a.probe_calls <- a.probe_calls + 1;
    st.Compact.mincost + w

  let materialise ~metrics st h =
    let a = Domain.DLS.get key in
    let t0 = Report.now () in
    let st' = Compact.materialise ~metrics st h in
    a.materialise_s <- a.materialise_s +. (Report.now () -. t0);
    a.materialise_calls <- a.materialise_calls + 1;
    st'

  let mincost (st : Compact.state) = st.Compact.mincost
  let free = Compact.free
end

module Dp = Subset_dp.Make (Kernels)

(* Wrap a spill sink so that every segment write and reload is timed. *)
let timed_sink (s : Membudget.sink) ~write_s ~reload_s =
  let timed r name f =
    Report.span ~cat:"spill" name (fun () ->
        let t0 = Report.now () in
        Fun.protect ~finally:(fun () -> r := !r +. (Report.now () -. t0)) f)
  in
  { Membudget.spill =
      (fun ~k ~ext payload ->
        timed write_s "spill.write" (fun () ->
            s.Membudget.spill ~k ~ext payload));
    reload =
      (fun ~k ~ext ->
        timed reload_s "spill.reload" (fun () -> s.Membudget.reload ~k ~ext))
  }

(* ---------- the traced solve ---------- *)

(* What one traced solve measured; a pass sums (or maxes) these. *)
type layer_sample = {
  probe_s : float;
  probe_calls : int;
  materialise_s : float;
  materialise_calls : int;
  table_cells : int;
  node_creations : int;
  node_table_copies : int;
  sweep_s : float;
  layer_max_s : float;
  extract_s : float;
  seed_s : float;
  seed_gap : float;
  states_pruned : int;
  states_total : int;
  peak_layer_bytes : int;
  accounted_peak_bytes : int;
  spill_write_s : float;
  spill_reload_s : float;
  spill_bytes : int;
  spill_raw_bytes : int;
  spill_reloads : int;
}

let traced mode ~scratch inst =
  let ps0, pc0, ms0, mc0 = totals () in
  let metrics = Metrics.create () in
  let write_s = ref 0. and reload_s = ref 0. in
  Report.span ~cat:"fs" ("solve " ^ inst.name) @@ fun () ->
  let prune, seed_s =
    match mode with
    | Oocore ->
        let t0 = Report.now () in
        let b =
          Report.span ~cat:"prune" "seed.bound" (fun () ->
              Ovo_ordering.Seed.bound inst.tt)
        in
        (Some b, Report.now () -. t0)
    | Seq | Par2 -> (None, 0.)
  in
  let seed_value = Option.map Bound.incumbent prune in
  let sp =
    match mode with
    | Oocore -> Some (Ovo_store.Spill.create (spill_dir scratch))
    | Seq | Par2 -> None
  in
  let membudget =
    match sp with
    | Some sp ->
        Membudget.create ~budget_bytes:(budget_bytes inst.n) ~extent_bytes
          ~sink:(timed_sink (Ovo_store.Spill.sink sp) ~write_s ~reload_s)
          ()
    | None -> Membudget.unbounded ()
  in
  let base = Compact.of_truthtable Compact.Bdd inst.tt in
  let last = ref 0. and layer_max = ref 0. in
  let t0 = Report.now () in
  let st =
    Fun.protect
      ~finally:(fun () -> Option.iter Ovo_store.Spill.remove sp)
      (fun () ->
        Report.span ~cat:"dp" "dp.complete" (fun () ->
            let parent = Report.current_span () in
            last := Report.now ();
            let on_layer (p : Subset_dp.progress) =
              let t = Report.now () in
              Report.closed_span ~cat:"dp" ~parent
                (Printf.sprintf "layer k=%d" p.Subset_dp.p_layer)
                !last t;
              layer_max := Float.max !layer_max (t -. !last);
              last := t
            in
            Dp.complete ~engine:(engine mode) ~metrics ~membudget ?prune
              ~on_layer ~base (Compact.free base)))
  in
  let sweep_s = Report.now () -. t0 in
  let t1 = Report.now () in
  let r = Report.span ~cat:"fs" "fs.of_state" (fun () -> Fs.of_state st) in
  let extract_s = Report.now () -. t1 in
  Option.iter (fun b -> Bound.check_final b r.Fs.mincost) prune;
  let ps1, pc1, ms1, mc1 = totals () in
  let sample =
    { probe_s = ps1 -. ps0; probe_calls = pc1 - pc0;
      materialise_s = ms1 -. ms0; materialise_calls = mc1 - mc0;
      table_cells = metrics.Metrics.table_cells;
      node_creations = metrics.Metrics.node_creations;
      node_table_copies = metrics.Metrics.node_table_copies; sweep_s;
      layer_max_s = !layer_max; extract_s; seed_s;
      seed_gap =
        (match seed_value with
        | Some v -> float_of_int v /. float_of_int (max 1 r.Fs.mincost)
        | None -> 0.);
      states_pruned =
        (match prune with Some b -> Bound.states_pruned b | None -> 0);
      states_total = pow 2 inst.n - 1;
      peak_layer_bytes = Membudget.peak_layer_bytes membudget;
      accounted_peak_bytes = Membudget.peak_resident_bytes membudget;
      spill_write_s = !write_s; spill_reload_s = !reload_s;
      spill_bytes = Membudget.bytes_spilled membudget;
      spill_raw_bytes = Membudget.raw_bytes_spilled membudget;
      spill_reloads = Membudget.reloads membudget }
  in
  let cells =
    if Option.is_none prune then Some metrics.Metrics.table_cells else None
  in
  (answer_of r cells, sample)

(* Per-layer series of one traced pass on [mode]: each mode gives the
   series of the layers only it exercises. *)
let add_layer_series mode ~wall_gc samples =
  let sumf f = List.fold_left (fun a (_, s) -> a +. f s) 0. samples in
  let sumi f = List.fold_left (fun a (_, s) -> a + f s) 0 samples in
  let maxi f =
    float_of_int (List.fold_left (fun a (_, s) -> max a (f s)) 0 samples)
  in
  let count f = float_of_int (sumi f) in
  let d = float_of_int (Engine.domain_count (engine mode)) in
  let sweep = sumf (fun s -> s.sweep_s) in
  let busy = sumf (fun s -> s.probe_s +. s.materialise_s) in
  let series =
    match mode with
    | Seq ->
        let ns_per_cell c =
          let l = List.filter (fun (i, _) -> i.cls = c) samples in
          let ps = List.fold_left (fun a (_, s) -> a +. s.probe_s) 0. l in
          let cells = List.fold_left (fun a (_, s) -> a + s.table_cells) 0 l in
          if cells = 0 then 0. else ps *. 1e9 /. float_of_int cells
        in
        [ ("compact.probe_s", sumf (fun s -> s.probe_s));
          ("compact.probe_calls", count (fun s -> s.probe_calls));
          ("compact.ns_per_cell_random", ns_per_cell Random);
          ("compact.ns_per_cell_structured", ns_per_cell Structured);
          ("compact.materialise_s", sumf (fun s -> s.materialise_s));
          ("compact.materialise_calls", count (fun s -> s.materialise_calls));
          ("compact.node_creations", count (fun s -> s.node_creations));
          ("compact.node_table_copies", count (fun s -> s.node_table_copies));
          ("dp.sweep_s", sweep);
          ( "dp.layer_max_s",
            List.fold_left (fun a (_, s) -> Float.max a s.layer_max_s) 0.
              samples );
          ("dp.self_s", sweep -. (busy /. d));
          ("fs.extract_s", sumf (fun s -> s.extract_s)) ]
    | Par2 ->
        let minor, major, alloc_mb = wall_gc in
        [ ("engine.busy_s", busy);
          ("engine.idle_s", (d *. sweep) -. busy);
          ("engine.efficiency", busy /. (d *. sweep));
          ("gc.minor_collections", minor);
          ("gc.major_collections", major);
          ("gc.alloc_mb", alloc_mb) ]
    | Oocore ->
        let pruned = sumi (fun s -> s.states_pruned) in
        let total = sumi (fun s -> s.states_total) in
        let raw = sumi (fun s -> s.spill_raw_bytes) in
        let stored = sumi (fun s -> s.spill_bytes) in
        [ ("prune.seed_s", sumf (fun s -> s.seed_s));
          ( "prune.seed_gap",
            sumf (fun s -> s.seed_gap) /. float_of_int (List.length samples) );
          ("prune.states_pruned", float_of_int pruned);
          ("prune.kept_frac", 1. -. (float_of_int pruned /. float_of_int total));
          ("pack.peak_layer_bytes", maxi (fun s -> s.peak_layer_bytes));
          ("mem.accounted_peak_bytes", maxi (fun s -> s.accounted_peak_bytes));
          ("spill.write_s", sumf (fun s -> s.spill_write_s));
          ("spill.reload_s", sumf (fun s -> s.spill_reload_s));
          ("spill.bytes", float_of_int stored);
          ("spill.reloads", count (fun s -> s.spill_reloads));
          ( "spill.compression_ratio",
            if stored = 0 then 1. else float_of_int raw /. float_of_int stored ) ]
  in
  List.iter (fun (k, v) -> Report.add k v) series

(* One traced pass over the instances: their answers, and one sample of
   every per-layer series. *)
let pass mode ~scratch insts =
  let g0 = Gc.quick_stat () in
  let results =
    Report.span ("pass " ^ mode_name mode) (fun () ->
        Array.map (traced mode ~scratch) insts)
  in
  let g1 = Gc.quick_stat () in
  add_layer_series mode ~wall_gc:(Report.gc_delta g0 g1)
    (Array.to_list (Array.map2 (fun i (_, s) -> (i, s)) insts results));
  Array.map fst results
