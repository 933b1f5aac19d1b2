(* ovo — exact and heuristic variable-ordering optimisation for decision
   diagrams, on the command line.  See `ovo --help` and README.md. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Input specification: how the Boolean function reaches the tool.     *)

let load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family =
  let sources =
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun s -> `Table s) table;
        Option.map (fun s -> `Expr s) expr;
        Option.map (fun s -> `Pla s) pla;
        Option.map (fun s -> `Blif s) blif;
        Option.map (fun s -> `Family s) family;
      ]
  in
  match sources with
  | [] -> Error "no input: pass one of --table, --expr, --pla, --blif, --family"
  | _ :: _ :: _ ->
      Error "pass exactly one of --table, --expr, --pla, --blif, --family"
  | [ `Table s ] -> (
      try Ok (Ovo_boolfun.Truthtable.of_string s)
      with Invalid_argument m -> Error m)
  | [ `Expr s ] -> (
      try Ok (Ovo_boolfun.Expr.to_truthtable (Ovo_boolfun.Expr.of_string s))
      with Failure m | Invalid_argument m -> Error m)
  | [ `Pla path ] -> (
      try
        let p = Ovo_boolfun.Pla.of_file path in
        Ok (Ovo_boolfun.Pla.output_table p pla_output)
      with
      | Failure m | Invalid_argument m -> Error m
      | Sys_error m -> Error m)
  | [ `Blif path ] -> (
      try
        let m = Ovo_boolfun.Blif.of_string
            (let ic = open_in path in
             let len = in_channel_length ic in
             let text = really_input_string ic len in
             close_in ic;
             text)
        in
        let name =
          match signal with
          | Some name -> name
          | None -> (
              match Ovo_boolfun.Blif.output_names m with
              | first :: _ -> first
              | [] -> raise Not_found)
        in
        Ok (Ovo_boolfun.Blif.output_table m name)
      with
      | Failure m | Invalid_argument m -> Error m
      | Sys_error m -> Error m
      | Not_found -> Error "unknown --signal for this BLIF model")
  | [ `Family name ] -> (
      match List.assoc_opt name (Ovo_boolfun.Families.catalogue ~max_arity:24) with
      | Some tt -> Ok tt
      | None ->
          Error
            (Printf.sprintf "unknown family %S; try `ovo families` for the list"
               name))

let table_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "table" ] ~docv:"BITS"
        ~doc:"Truth table as a 0/1 string of length $(b,2^n) (entry $(i,i) is f at assignment code $(i,i)).")

let expr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "expr" ] ~docv:"EXPR"
        ~doc:"Boolean expression, e.g. $(b,'x0 & x1 | x2 ^ !x3').")

let pla_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pla" ] ~docv:"FILE" ~doc:"PLA (espresso) file.")

let pla_output_arg =
  Arg.(
    value & opt int 0
    & info [ "output" ] ~docv:"IDX" ~doc:"PLA output column to use (default 0).")

let blif_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "blif" ] ~docv:"FILE" ~doc:"BLIF (combinational) file.")

let signal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "signal" ] ~docv:"NAME"
        ~doc:"Output to use from a $(b,--blif) model (default: the first).")

let family_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "family" ] ~docv:"NAME"
        ~doc:"Named benchmark function; list them with $(b,ovo families).")

let kind_arg =
  let kind_conv =
    Arg.enum [ ("bdd", Ovo_core.Compact.Bdd); ("zdd", Ovo_core.Compact.Zdd) ]
  in
  Arg.(
    value & opt kind_conv Ovo_core.Compact.Bdd
    & info [ "kind" ] ~docv:"KIND" ~doc:"Diagram kind: $(b,bdd) or $(b,zdd).")

let engine_arg =
  let engine_conv = Arg.enum [ ("seq", `Seq); ("par", `Par) ] in
  Arg.(
    value & opt engine_conv `Seq
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "DP engine: $(b,seq) (default) or $(b,par), which splits each \
           cardinality layer of the dynamic program across worker domains \
           (see $(b,--domains)).  Results are identical either way.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for $(b,--engine par); $(b,0) (default) uses the \
           runtime's recommended count.")

let stats_arg =
  let stats_conv = Arg.enum [ ("none", `None); ("text", `Text); ("json", `Json) ] in
  Arg.(
    value & opt stats_conv `None
    & info [ "stats" ] ~docv:"FMT"
        ~doc:
          "Print the run's operation counters (table cells, cost probes, \
           materialised states, ...) after the result: $(b,text) or \
           $(b,json).")

let resolve_engine engine domains =
  match engine with
  | `Seq -> Ovo_core.Engine.Seq
  | `Par -> Ovo_core.Engine.par ~domains ()

(* With an active --mem-budget the JSON object gains a "mem" field and
   with --prune a "prune" field; the default output is byte-identical to
   the pre-budget CLI (pinned by test/cli.t and test/obs.t). *)
let emit_stats ?membudget ?prune stats (m : Ovo_core.Metrics.t) =
  let s = Ovo_core.Metrics.snapshot m in
  match stats with
  | `None -> ()
  | `Text ->
      Format.printf "%a@." Ovo_core.Metrics.pp s;
      Option.iter
        (fun mb -> Format.printf "mem: %a@." Ovo_core.Membudget.pp mb)
        membudget;
      Option.iter
        (fun b -> Format.printf "prune: %a@." Ovo_core.Bound.pp b)
        prune
  | `Json -> (
      match (membudget, prune) with
      | None, None -> Format.printf "%s@." (Ovo_core.Metrics.to_json s)
      | _ ->
          let fields =
            Ovo_core.Metrics.to_args s
            @ (match membudget with
              | None -> []
              | Some mb -> [ ("mem", Ovo_core.Membudget.to_json_value mb) ])
            @
            match prune with
            | None -> []
            | Some b -> [ ("prune", Ovo_core.Bound.to_json_value b) ]
          in
          Format.printf "%s@."
            (Ovo_obs.Json.to_string (Ovo_obs.Json.Obj fields)))

(* ------------------------------------------------------------------ *)
(* observability: --trace / --profile / --progress share one tracer    *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run.  A $(i,FILE) ending in \
           $(b,.jsonl) gets one JSON object per event; any other name \
           gets Chrome $(b,trace_event) JSON, loadable in Perfetto or \
           chrome://tracing.  Schemas in doc/observability.md.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a profile to stderr after the run: wall time, per-span \
           aggregates, the slowest spans, and GC allocation totals.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Tick each completed DP phase on stderr as the run goes.")

(* Build the tracer the three flags imply ({!Ovo_obs.Trace.null} when
   none is set, so traced code paths cost one branch), run [f] under it,
   and emit the requested outputs — also when [f] raises, so a trace of
   a crashing run survives for inspection. *)
let with_obs ~trace_file ~profile ~progress f =
  if trace_file = None && (not profile) && not progress then
    f Ovo_obs.Trace.null
  else begin
    let trace = Ovo_obs.Trace.make () in
    if progress then
      Ovo_obs.Trace.on_event trace (function
        | Ovo_obs.Trace.Span s when s.Ovo_obs.Trace.cat = "dp" ->
            Printf.eprintf "[ovo] %-16s %8.3f ms\n%!" s.Ovo_obs.Trace.name
              ((s.Ovo_obs.Trace.stop -. s.Ovo_obs.Trace.start) *. 1e3)
        | _ -> ());
    let finish () =
      (match trace_file with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          (if Filename.check_suffix path ".jsonl" then
             Ovo_obs.Export.write_jsonl oc trace
           else Ovo_obs.Export.write_chrome oc trace);
          close_out oc;
          Printf.eprintf "[ovo] trace written: %s (%d events)\n%!" path
            (Ovo_obs.Trace.event_count trace));
      if profile then prerr_string (Ovo_obs.Export.summary trace)
    in
    Fun.protect ~finally:finish (fun () -> f trace)
  end

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Write the resulting diagram in the ovo exchange format.")

(* ------------------------------------------------------------------ *)
(* persistence flags (doc/persistence.md)                              *)

let fsync_conv =
  let parse s =
    match Ovo_store.Rlog.fsync_of_string s with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf f ->
        Format.pp_print_string ppf (Ovo_store.Rlog.fsync_to_string f) )

let fsync_arg =
  Arg.(
    value
    & opt fsync_conv Ovo_store.Rlog.Never
    & info [ "fsync" ] ~docv:"MODE"
        ~doc:
          "Durability policy for store and checkpoint writes: $(b,always), \
           $(b,never) (default; appends still survive process death — this \
           only matters for machine crashes), $(b,interval) (1s) or \
           $(b,interval:SECS).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "($(b,--algo fs) only)  Write a checkpoint record after every \
           completed DP layer, starting fresh.  A killed run continues \
           with $(b,--resume) $(i,FILE).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "($(b,--algo fs) only)  Resume from a checkpoint file written by \
           $(b,--checkpoint), and keep checkpointing to it.  The solution \
           is bit-identical to an uninterrupted run.  A missing file \
           degrades to a fresh checkpointed run; a file from a different \
           input or kind is an error.")

let crash_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after-layer" ] ~docv:"K"
        ~doc:
          "Testing hook: exit with status 42 right after the layer-$(i,K) \
           checkpoint record is written — a deterministic stand-in for \
           kill -9.")

let mem_budget_conv =
  let parse s =
    match Ovo_core.Membudget.parse_bytes s with
    | Ok b -> Ok b
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_int ppf b)

let mem_budget_arg =
  Arg.(
    value
    & opt (some mem_budget_conv) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "($(b,--algo fs) only)  Cap the resident bytes of the DP's packed            cost/choice layers.  Completed layers past the cap spill to            CRC-framed segments under $(b,--spill-dir) and are reloaded            lazily during reconstruction; the solution is bit-identical to            an unbounded run.  Accepts $(b,k)/$(b,M)/$(b,G) suffixes            (binary multiples).")

let spill_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for $(b,--mem-budget) spill segments (default: a fresh            $(b,ovo-spill-<pid>) under the system temp directory).  Segments            are deleted when the run finishes.")

let spill_mmap_arg =
  Arg.(
    value
    & flag
    & info [ "spill-mmap" ]
        ~doc:
          "Write $(b,--mem-budget) spill segments in the mappable raw \
           format and reload them via $(b,mmap)(2): reloaded extents stay \
           off the OCaml heap and the kernel pages them in (and back out) \
           on demand.  Corruption detection (CRC-32) is unchanged.")

let spill_extent_arg =
  Arg.(
    value
    & opt (some mem_budget_conv) None
    & info [ "spill-extent" ] ~docv:"BYTES"
        ~doc:
          "($(b,--mem-budget) only)  Dense payload bytes per spill extent \
           (default 1M).  Layers are split into fixed-size extents and \
           spilled/reloaded at that granularity, so even a single layer \
           larger than the whole budget stays out of core.  Accepts \
           $(b,k)/$(b,M)/$(b,G) suffixes.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the resulting diagram in Graphviz format.")

let pp_order ppf order =
  Format.fprintf ppf "[%s]"
    (String.concat " " (List.map string_of_int (Array.to_list order)))

let print_result ?save ~algo ~modeled (r : Ovo_core.Fs.result) dot =
  Format.printf "algorithm        : %s@." algo;
  Format.printf "minimum size     : %d nodes (%d non-terminal)@." r.Ovo_core.Fs.size
    r.Ovo_core.Fs.mincost;
  Format.printf "order (root first): %a@." pp_order (Ovo_core.Fs.read_first_order r);
  Format.printf "order (paper pi)  : %a@." pp_order r.Ovo_core.Fs.order;
  Format.printf "level widths      : %a@." pp_order r.Ovo_core.Fs.widths;
  (match modeled with
  | Some cost -> Format.printf "modeled cost      : %.3e table cells@." cost
  | None -> ());
  (match save with
  | None | Some None -> ()
  | Some (Some path) ->
      let oc = open_out path in
      output_string oc (Ovo_core.Diagram.serialize r.Ovo_core.Fs.diagram);
      close_out oc;
      Format.printf "diagram saved     : %s@." path);
  match dot with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Ovo_core.Diagram.to_dot r.Ovo_core.Fs.diagram);
      close_out oc;
      Format.printf "diagram written   : %s@." path

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)

let weights_arg =
  Arg.(
    value
    & opt (some (list ~sep:',' int)) None
    & info [ "weights" ] ~docv:"W0,W1,.."
        ~doc:
          "Per-variable level weights: minimise the weighted node count \
           exactly (overrides $(b,--algo)).")

let algo_arg =
  Arg.(
    value & opt string "fs"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "One of $(b,fs) (exact DP, Theorem 5), $(b,qdc) (quantum \
           divide-and-conquer, Theorem 10, simulated), $(b,tower:N) \
           (Theorem 13 composition of depth N, simulated), $(b,brute), \
           $(b,simple) (Sec 3.1 single split, simulated), $(b,astar) (exact, \
           pruned), $(b,sifting), $(b,window), $(b,exact-block), \
           $(b,annealing), $(b,genetic), $(b,influence), $(b,scored) \
           (learned weighted scoring, see $(b,--model)), $(b,portfolio), \
           $(b,random).")

let model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "model" ] ~docv:"FILE"
        ~doc:
          "Scorer weight model (JSON, doc/learning.md) for $(b,--algo \
           scored), the portfolio's scored member and the $(b,--prune) \
           incumbent.  Default: the built-in weights.")

(* every learn-aware command funnels model loading through here so a
   bad file is one uniform CLI error, not an exception trace *)
let load_weights = function
  | None -> Ovo_learn.Scorer.Weights.default
  | Some path -> (
      match Ovo_learn.Scorer.Weights.load path with
      | Ok w -> w
      | Error m -> failwith ("--model: " ^ m))

let seed_arg =
  Arg.(value & opt int 0x0BDD & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let prune_arg =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "prune" ]
              ~doc:
                "Run the exact DP as a branch-and-bound: seed a free \
                 incumbent from the learned scorer, tighten it with \
                 sifting, skip every subset whose admissible lower \
                 bound proves it cannot beat the incumbent.  Same optimum, \
                 same ordering, fewer states; --stats gains a prune block.  \
                 Works with --algo fs, qdc, tower:N and simple (and with \
                 --weights); incompatible with --checkpoint/--resume." );
          (false, info [ "no-prune" ] ~doc:"Disable pruning (the default).");
        ])

let optimize_cmd =
  let run table expr pla pla_output blif signal family kind algo dot save
      weights seed engine domains stats trace_file profile progress checkpoint
      resume crash_after fsync mem_budget spill_dir spill_mmap spill_extent
      prune model =
    let engine = resolve_engine engine domains in
    with_obs ~trace_file ~profile ~progress @@ fun trace ->
    match load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family with
    | Error m -> `Error (false, m)
    | Ok tt when weights <> None -> (
        match weights with
        | Some ws -> (
            try
              let metrics = Ovo_core.Metrics.create () in
              let weights = Array.of_list ws in
              let bound =
                if prune then
                  Some
                    (Ovo_ordering.Seed.weighted_bound ~trace ~kind ~weights
                       (Ovo_boolfun.Mtable.of_truthtable tt))
                else None
              in
              let r =
                Ovo_core.Fs_weighted.run ~trace ~kind ~engine ~metrics ~weights
                  ?prune:bound tt
              in
              Format.printf "algorithm        : FS (exact, weighted)@.";
              Format.printf "weighted cost    : %d@."
                r.Ovo_core.Fs_weighted.weighted_cost;
              Format.printf "node count       : %d@."
                r.Ovo_core.Fs_weighted.mincost;
              Format.printf "order (root first): %a@." pp_order
                (Ovo_core.Eval_order.read_first r.Ovo_core.Fs_weighted.order);
              emit_stats ?prune:bound stats metrics;
              `Ok ()
            with Invalid_argument m -> `Error (false, m))
        | None -> assert false)
    | Ok tt -> (
        let with_eval name order =
          let metrics = Ovo_core.Metrics.create () in
          let st = Ovo_core.Eval_order.state ~kind ~metrics tt order in
          print_result ~save ~algo:name ~modeled:None (Ovo_core.Fs.of_state st)
            dot;
          emit_stats stats metrics;
          `Ok ()
        in
        try
          let exact_algo =
            match String.split_on_char ':' algo with
            | [ "fs" ] | [ "qdc" ] | [ "simple" ] | [ "tower"; _ ] -> true
            | _ -> false
          in
          if
            (checkpoint <> None || resume <> None || crash_after <> None)
            && algo <> "fs"
          then failwith "--checkpoint/--resume/--crash-after-layer need --algo fs";
          if mem_budget <> None && not exact_algo then
            failwith "--mem-budget needs --algo fs, qdc, tower:N or simple";
          if spill_dir <> None && mem_budget = None then
            failwith "--spill-dir needs --mem-budget";
          if spill_mmap && mem_budget = None then
            failwith "--spill-mmap needs --mem-budget";
          if spill_extent <> None && mem_budget = None then
            failwith "--spill-extent needs --mem-budget";
          if prune && not exact_algo then
            failwith "--prune needs --algo fs, qdc, tower:N or simple";
          if prune && (checkpoint <> None || resume <> None) then
            failwith "--prune is incompatible with --checkpoint/--resume";
          (* unified mode: the checkpoint doubles as the spill store, so
             a budget+checkpoint run writes each layer once and needs no
             spill directory *)
          let unified =
            mem_budget <> None && (checkpoint <> None || resume <> None)
          in
          if unified && (spill_dir <> None || spill_mmap) then
            failwith
              "--checkpoint/--resume already serve as the spill store; \
               drop --spill-dir/--spill-mmap";
          let membudget, spill_cleanup =
            match mem_budget with
            | None -> (None, fun () -> ())
            | Some _ when unified -> (None, fun () -> ())
            | Some budget_bytes ->
                let dir =
                  match spill_dir with
                  | Some d -> d
                  | None ->
                      Filename.concat
                        (Filename.get_temp_dir_name ())
                        (Printf.sprintf "ovo-spill-%d" (Unix.getpid ()))
                in
                let sp = Ovo_store.Spill.create ~fsync ~mmap:spill_mmap dir in
                ( Some
                    (Ovo_core.Membudget.create ~budget_bytes
                       ?extent_bytes:spill_extent
                       ~sink:(Ovo_store.Spill.sink sp) ()),
                  fun () -> Ovo_store.Spill.remove sp )
          in
          let swts = load_weights model in
          let bound =
            if prune then
              Some (Ovo_learn.Scorer.seeded_bound ~trace ~weights:swts ~kind tt)
            else None
          in
          Fun.protect ~finally:spill_cleanup @@ fun () ->
          match String.split_on_char ':' algo with
          | [ "fs" ] ->
              let metrics = Ovo_core.Metrics.create () in
              let meta = Ovo_store.Checkpoint.meta_of ~kind tt in
              let writer, resume_layers =
                match (checkpoint, resume) with
                | Some _, Some _ ->
                    failwith
                      "pass --checkpoint (start fresh) or --resume \
                       (continue), not both"
                | Some path, None ->
                    (Some (Ovo_store.Checkpoint.create ~fsync ~path meta), [])
                | None, Some path ->
                    let w, layers =
                      Ovo_store.Checkpoint.open_resume ~fsync ~path meta
                    in
                    if layers <> [] then
                      Printf.eprintf
                        "[ovo] resuming %s: layers 1..%d already done\n%!"
                        path (List.length layers);
                    (Some w, layers)
                | None, None -> (None, [])
              in
              let membudget =
                match (mem_budget, writer) with
                | Some budget_bytes, Some w when unified ->
                    (* spill through the checkpoint: evictions are
                       no-ops (the layer record is already appended) and
                       reloads slice the records on hand *)
                    Some
                      (Ovo_core.Membudget.create ~budget_bytes
                         ?extent_bytes:spill_extent
                         ~sink:(Ovo_store.Checkpoint.sink w) ())
                | _ -> membudget
              in
              let on_layer (p : Ovo_core.Subset_dp.progress) =
                match writer with
                | None -> ()
                | Some w ->
                    Ovo_store.Checkpoint.append_layer w p;
                    if crash_after = Some p.Ovo_core.Subset_dp.p_layer
                    then begin
                      Ovo_store.Checkpoint.close w;
                      Printf.eprintf
                        "[ovo] --crash-after-layer %d: exiting 42\n%!"
                        p.Ovo_core.Subset_dp.p_layer;
                      exit 42
                    end
              in
              let r =
                Ovo_core.Fs.run ~trace ~kind ~engine ~metrics ?membudget
                  ?prune:bound ~on_layer ~resume:resume_layers tt
              in
              Option.iter Ovo_store.Checkpoint.close writer;
              print_result ~save ~algo:"FS (exact)"
                ~modeled:
                  (Some
                     (float_of_int
                        (Ovo_core.Metrics.snapshot metrics)
                          .Ovo_core.Metrics.s_table_cells))
                r dot;
              emit_stats ?membudget ?prune:bound stats metrics;
              `Ok ()
          | [ "qdc" ] ->
              let ctx =
                Ovo_quantum.Opt_obdd.make_ctx ~engine ~trace ?membudget
                  ?bound ()
              in
              let r, cost =
                Ovo_quantum.Opt_obdd.minimize ~kind ~ctx
                  (Ovo_quantum.Opt_obdd.theorem10 ()) tt
              in
              print_result ~save ~algo:"OptOBDD(6,alpha) [simulated]" ~modeled:(Some cost)
                r dot;
              emit_stats ?membudget ?prune:bound stats
                ctx.Ovo_quantum.Opt_obdd.metrics;
              `Ok ()
          | [ "tower"; d ] ->
              let depth = int_of_string d in
              let ctx =
                Ovo_quantum.Opt_obdd.make_ctx ~engine ~trace ?membudget
                  ?bound ()
              in
              let r, cost =
                Ovo_quantum.Opt_obdd.minimize ~kind ~ctx
                  (Ovo_quantum.Opt_obdd.tower ~depth) tt
              in
              print_result ~save
                ~algo:(Printf.sprintf "Gamma_%d tower [simulated]" depth)
                ~modeled:(Some cost) r dot;
              emit_stats ?membudget ?prune:bound stats
                ctx.Ovo_quantum.Opt_obdd.metrics;
              `Ok ()
          | [ "brute" ] ->
              let r = Ovo_ordering.Brute.best ~kind tt in
              with_eval "brute force" r.Ovo_ordering.Brute.order
          | [ "sifting" ] ->
              let r = Ovo_ordering.Sifting.run ~trace ~kind tt in
              with_eval "sifting (heuristic)" r.Ovo_ordering.Sifting.order
          | [ "window" ] ->
              let r = Ovo_ordering.Window.run ~trace ~kind tt in
              with_eval "window permutation (heuristic)" r.Ovo_ordering.Window.order
          | [ "exact-block" ] ->
              let r = Ovo_ordering.Exact_block.run ~kind tt in
              with_eval "exact-block hybrid" r.Ovo_ordering.Exact_block.order
          | [ "astar" ] ->
              let r = Ovo_ordering.Astar.run ~trace ~kind tt in
              Format.printf "A* expanded %d of %d subsets@."
                r.Ovo_ordering.Astar.expanded r.Ovo_ordering.Astar.subsets_total;
              with_eval "A* (exact, pruned)" r.Ovo_ordering.Astar.order
          | [ "genetic" ] ->
              let rng = Random.State.make [| seed |] in
              let r = Ovo_ordering.Genetic.run ~kind ~rng tt in
              with_eval "genetic algorithm (heuristic)" r.Ovo_ordering.Genetic.order
          | [ "influence" ] ->
              let r = Ovo_ordering.Influence.run ~kind tt in
              with_eval "influence static heuristic" r.Ovo_ordering.Influence.order
          | [ "scored" ] ->
              let r = Ovo_learn.Scorer.run ~trace ~weights:swts ~kind tt in
              with_eval "scored (learned static heuristic)"
                r.Ovo_learn.Scorer.order
          | [ "simple" ] ->
              let ctx =
                Ovo_quantum.Opt_obdd.make_ctx ~engine ~trace ?membudget
                  ?bound ()
              in
              let r, cost =
                Ovo_quantum.Opt_obdd.minimize ~kind ~ctx
                  (Ovo_quantum.Opt_obdd.simple_split ()) tt
              in
              print_result ~save ~algo:"OptOBDD simple split [simulated]"
                ~modeled:(Some cost) r dot;
              emit_stats ?membudget ?prune:bound stats
                ctx.Ovo_quantum.Opt_obdd.metrics;
              `Ok ()
          | [ "annealing" ] ->
              let rng = Random.State.make [| seed |] in
              let r = Ovo_ordering.Annealing.run ~kind ~rng tt in
              with_eval "simulated annealing (heuristic)"
                r.Ovo_ordering.Annealing.order
          | [ "portfolio" ] ->
              let rng = Random.State.make [| seed |] in
              let r =
                Ovo_ordering.Portfolio.run ~trace ~kind ~rng
                  ~extra:
                    [ Ovo_learn.Scorer.portfolio_member ~weights:swts ~kind () ]
                  tt
              in
              List.iter
                (fun e ->
                  Format.printf "  %-12s %d@."
                    e.Ovo_ordering.Portfolio.method_name
                    e.Ovo_ordering.Portfolio.mincost)
                r.Ovo_ordering.Portfolio.entries;
              with_eval
                (Printf.sprintf "portfolio (won by %s)"
                   r.Ovo_ordering.Portfolio.best.Ovo_ordering.Portfolio.method_name)
                r.Ovo_ordering.Portfolio.best.Ovo_ordering.Portfolio.order
          | [ "random" ] ->
              let rng = Random.State.make [| seed |] in
              let r = Ovo_ordering.Random_search.run ~kind ~rng tt in
              with_eval "random search" r.Ovo_ordering.Random_search.order
          | _ -> `Error (false, "unknown --algo " ^ algo)
        with Invalid_argument m | Failure m -> `Error (false, m))
  in
  let term =
    Term.(
      ret
        (const run $ table_arg $ expr_arg $ pla_arg $ pla_output_arg
       $ blif_arg $ signal_arg $ family_arg $ kind_arg $ algo_arg $ dot_arg
       $ save_arg $ weights_arg $ seed_arg $ engine_arg $ domains_arg
       $ stats_arg $ trace_arg $ profile_arg $ progress_arg $ checkpoint_arg
       $ resume_arg $ crash_after_arg $ fsync_arg $ mem_budget_arg
       $ spill_dir_arg $ spill_mmap_arg $ spill_extent_arg $ prune_arg
       $ model_arg))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Find an optimal (or heuristic) variable ordering for a function")
    term

(* ------------------------------------------------------------------ *)
(* widths                                                              *)

let order_arg =
  Arg.(
    required
    & opt (some (list ~sep:',' int)) None
    & info [ "order" ] ~docv:"V0,V1,.."
        ~doc:"Ordering to evaluate, root (read-first) variable first.")

let widths_cmd =
  let run table expr pla pla_output blif signal family kind order =
    match load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family with
    | Error m -> `Error (false, m)
    | Ok tt -> (
        try
          let rf = Array.of_list order in
          let pi = Ovo_core.Eval_order.read_first rf in
          let d = Ovo_core.Eval_order.diagram ~kind tt pi in
          let widths = Ovo_core.Diagram.level_widths d in
          Format.printf "size  : %d@." (Ovo_core.Diagram.size d);
          Format.printf "widths: %a@." pp_order widths;
          Format.printf "caps  : ok=%b (universal per-level bounds, max size %.0f)@."
            (Ovo_core.Bounds.check_widths
               ~n:(Ovo_boolfun.Truthtable.arity tt)
               widths)
            (Ovo_core.Bounds.max_size (Ovo_boolfun.Truthtable.arity tt));
          (* profile histogram, root level first *)
          let peak = Array.fold_left max 1 widths in
          for level = Array.length widths - 1 downto 0 do
            let w = widths.(level) in
            Format.printf "  x%-3d %4d %s@." pi.(level) w
              (String.make (max 1 (w * 40 / peak)) '#')
          done;
          `Ok ()
        with Invalid_argument m -> `Error (false, m))
  in
  let term =
    Term.(
      ret
        (const run $ table_arg $ expr_arg $ pla_arg $ pla_output_arg
       $ blif_arg $ signal_arg $ family_arg $ kind_arg $ order_arg))
  in
  Cmd.v
    (Cmd.info "widths" ~doc:"Evaluate a given variable ordering on a function")
    term

(* ------------------------------------------------------------------ *)
(* table1 / table2                                                     *)

let table1_cmd =
  let run () =
    Format.printf "Reproducing paper Table 1 (gamma_k and alpha for OptOBDD(k, alpha)):@.";
    List.iter
      (fun r -> Format.printf "  %a@." Ovo_numerics.Tables.pp_row r)
      (Ovo_numerics.Tables.table1 ());
    let a0, g0 = Ovo_numerics.Exponents.gamma0 () in
    Format.printf "  (Sec 3.1 gamma_0 without preprocessing: alpha=%.6f gamma=%.5f)@." a0 g0
  in
  Cmd.v (Cmd.info "table1" ~doc:"Re-solve the paper's Table 1") Term.(const run $ const ())

let table2_cmd =
  let run rounds =
    Format.printf "Reproducing paper Table 2 (Theorem 13 composition):@.";
    List.iter
      (fun r -> Format.printf "  %a@." Ovo_numerics.Tables.pp_row r)
      (Ovo_numerics.Tables.table2 ~rounds ())
  in
  let rounds =
    Arg.(value & opt int 10 & info [ "rounds" ] ~doc:"Composition rounds.")
  in
  Cmd.v (Cmd.info "table2" ~doc:"Re-solve the paper's Table 2") Term.(const run $ rounds)

(* ------------------------------------------------------------------ *)
(* fig1                                                                *)

let fig1_cmd =
  let run pairs =
    let tt = Ovo_boolfun.Families.achilles pairs in
    let good = Ovo_boolfun.Families.achilles_good_order pairs in
    let bad = Ovo_boolfun.Families.achilles_bad_order pairs in
    Format.printf
      "f = x0*x1 + x2*x3 + ... over %d variables (paper Fig. 1 family)@."
      (2 * pairs);
    Format.printf "natural ordering    : size %d (paper: 2n+2 = %d)@."
      (Ovo_core.Eval_order.size tt good)
      ((2 * pairs) + 2);
    Format.printf "interleaved ordering: size %d (paper: 2^(n+1) = %d)@."
      (Ovo_core.Eval_order.size tt bad)
      (1 lsl (pairs + 1));
    let r = Ovo_core.Fs.run tt in
    Format.printf "exact optimum       : size %d@." r.Ovo_core.Fs.size
  in
  let pairs =
    Arg.(value & opt int 3 & info [ "pairs" ] ~doc:"Number of product pairs n.")
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Reproduce the paper's Fig. 1 ordering blow-up")
    Term.(const run $ pairs)

(* ------------------------------------------------------------------ *)
(* compare (heuristic quality)                                         *)

let compare_cmd =
  let run table expr pla pla_output blif signal family seed =
    match load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family with
    | Error m -> `Error (false, m)
    | Ok tt ->
        let rng = Random.State.make [| seed |] in
        let name = Option.value family ~default:"function" in
        let report = Ovo_ordering.Quality.evaluate ~rng ~name tt in
        Format.printf "%a@." Ovo_ordering.Quality.pp_report report;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ table_arg $ expr_arg $ pla_arg $ pla_output_arg
       $ blif_arg $ signal_arg $ family_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Judge heuristic quality against the exact optimum (paper Sec. 1.1)")
    term

(* ------------------------------------------------------------------ *)
(* shared (multi-output)                                               *)

let shared_cmd =
  let run pla kind engine domains stats trace_file profile progress =
    let engine = resolve_engine engine domains in
    with_obs ~trace_file ~profile ~progress @@ fun trace ->
    match pla with
    | None -> `Error (false, "pass --pla FILE (all outputs are optimised jointly)")
    | Some path -> (
        try
          let p = Ovo_boolfun.Pla.of_file path in
          let outputs = Ovo_boolfun.Pla.tables p in
          let metrics = Ovo_core.Metrics.create () in
          let r =
            Ovo_core.Shared.minimize ~trace ~kind ~engine ~metrics outputs
          in
          Format.printf "outputs            : %d over %d inputs@."
            (Array.length outputs) (Ovo_boolfun.Pla.inputs p);
          Format.printf "shared minimum size: %d nodes (%d non-terminal)@."
            r.Ovo_core.Shared.size r.Ovo_core.Shared.mincost;
          let n = Array.length r.Ovo_core.Shared.order in
          Format.printf "order (root first) : %a@." pp_order
            (Array.init n (fun i -> r.Ovo_core.Shared.order.(n - 1 - i)));
          Array.iteri
            (fun j tt ->
              let alone = (Ovo_core.Fs.run ~kind tt).Ovo_core.Fs.mincost in
              Format.printf "  output %d alone would need %d nodes@." j alone)
            outputs;
          emit_stats stats metrics;
          `Ok ()
        with
        | Failure m | Invalid_argument m | Sys_error m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "shared"
       ~doc:"Jointly optimise all outputs of a PLA as one shared diagram")
    Term.(ret (const run $ pla_arg $ kind_arg $ engine_arg $ domains_arg
               $ stats_arg $ trace_arg $ profile_arg $ progress_arg))

(* ------------------------------------------------------------------ *)
(* spectrum                                                            *)

let spectrum_cmd =
  let run table expr pla pla_output blif signal family kind =
    match load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family with
    | Error m -> `Error (false, m)
    | Ok tt -> (
        try
          let s = Ovo_ordering.Spectrum.compute ~kind tt in
          Format.printf "%a@." Ovo_ordering.Spectrum.pp s;
          Format.printf "histogram (cost: orderings):@.";
          List.iter
            (fun (cost, count) -> Format.printf "  %4d: %d@." cost count)
            s.Ovo_ordering.Spectrum.histogram;
          `Ok ()
        with Invalid_argument m -> `Error (false, m))
  in
  let term =
    Term.(
      ret
        (const run $ table_arg $ expr_arg $ pla_arg $ pla_output_arg
       $ blif_arg $ signal_arg $ family_arg $ kind_arg))
  in
  Cmd.v
    (Cmd.info "spectrum"
       ~doc:"Size distribution over all orderings (arity <= 8)")
    term

(* ------------------------------------------------------------------ *)
(* show (serialized diagrams)                                          *)

let show_cmd =
  let run path dot =
    try
      let ic = open_in path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      let d = Ovo_core.Diagram.deserialize text in
      Format.printf "%a@." Ovo_core.Diagram.pp d;
      Format.printf "level widths: %a@." pp_order
        (Ovo_core.Diagram.level_widths d);
      (match dot with
      | None -> ()
      | Some out ->
          let oc = open_out out in
          output_string oc (Ovo_core.Diagram.to_dot d);
          close_out oc;
          Format.printf "dot written : %s@." out);
      `Ok ()
    with
    | Failure m | Invalid_argument m -> `Error (false, m)
    | Sys_error m -> `Error (false, m)
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A diagram saved with $(b,optimize --save).")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Inspect a saved diagram file")
    Term.(ret (const run $ path $ dot_arg))

(* ------------------------------------------------------------------ *)
(* serve / submit                                                      *)

let addr_conv =
  let parse s =
    match Ovo_serve.Protocol.addr_of_string s with
    | Ok a -> Ok a
    | Error (`Msg m) -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf a ->
      Format.pp_print_string ppf (Ovo_serve.Protocol.addr_to_string a))

let listen_arg =
  Arg.(
    value
    & opt addr_conv (Ovo_serve.Protocol.Unix_sock "ovo.sock")
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Address to serve on: a Unix-socket path ($(b,unix:/tmp/ovo.sock) \
           or any string with a slash) or $(b,host:port) for TCP.  Default \
           $(b,ovo.sock) in the current directory.")

let serve_cmd =
  let run listen workers queue_cap cache_cap max_arity idle_timeout trace_file
      store no_store fsync mem_budget prune orderer access_log prom
      no_telemetry shard_id =
    let store_dir = if no_store then None else store in
    match
      match prom with
      | None -> Ok None
      | Some spec ->
          Result.map Option.some (Ovo_serve.Server.prom_sink_of_string spec)
    with
    | Error (`Msg m) -> `Error (false, "--prom: " ^ m)
    | Ok prom ->
        Ovo_serve.Server.run
          { Ovo_serve.Server.listen; workers; queue_cap; cache_cap; max_arity;
            idle_timeout; trace_file; store_dir; store_fsync = fsync;
            mem_budget; prune; orderer; access_log; prom;
            telemetry = not no_telemetry; shard_id };
        `Ok ()
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size.")
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Job-queue depth before requests are rejected with \
                   $(b,queue_full) + $(b,retry_after_ms).")
  in
  let cache_cap =
    Arg.(value & opt int 256
         & info [ "cache-cap" ] ~docv:"N"
             ~doc:"Result-cache entries (LRU eviction).")
  in
  let max_arity =
    Arg.(value & opt int 16
         & info [ "max-arity" ] ~docv:"N"
             ~doc:"Largest accepted arity; bigger requests get \
                   $(b,too_large).")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Shut down after this many seconds without a request \
                   (safety net for scripted runs).")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Durable result store: recover and warm-load the cache \
                   from $(i,DIR) at startup, persist every solved result \
                   to its write-ahead log (doc/persistence.md).")
  in
  let no_store =
    Arg.(value & flag
         & info [ "no-store" ]
             ~doc:"Run purely in memory even when $(b,--store) is given \
                   (the flag wins).")
  in
  let mem_budget =
    Arg.(value & opt (some mem_budget_conv) None
         & info [ "mem-budget" ] ~docv:"BYTES"
             ~doc:"Per-solve cap on resident DP layer bytes: big requests \
                   degrade to out-of-core (spilling to a scratch directory \
                   under the system temp dir) instead of growing the \
                   daemon's memory without bound.  Accepts k/M/G suffixes.")
  in
  let serve_prune =
    Arg.(value & flag
         & info [ "prune" ]
             ~doc:"Run every cache-miss solve as a sifting-seeded exact                    branch-and-bound: identical answers, fewer DP states,                    and deadline-cancelled replies carry the best-so-far                    bound pair.")
  in
  let orderer =
    let orderer_conv = Arg.enum [ ("exact", `Exact); ("scored", `Scored) ] in
    Arg.(value & opt orderer_conv `Exact
         & info [ "orderer" ] ~docv:"WHO"
             ~doc:"What answers a cache miss: $(b,exact) (default) runs \
                   the DP; $(b,scored) replies with the learned scorer's \
                   static ordering in heuristic time — a valid ordering \
                   and its achievable cost, not a proven optimum, and \
                   never cached.")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Append one CRC-framed structured entry per solve request \
                   (digest, outcome, queue wait, solve duration, cache hit, \
                   bound window).  A torn tail from a crash is recovered on \
                   reopen; dump with $(b,ovo access-log) $(i,FILE).")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE|ADDR"
             ~doc:"Export the Prometheus text exposition: a path (anything \
                   with a slash, or a bare filename) is atomically rewritten \
                   every second; $(b,host:port) serves it per scrape over \
                   HTTP.")
  in
  let no_telemetry =
    Arg.(value & flag
         & info [ "no-telemetry" ]
             ~doc:"Skip per-request instrument updates (histograms, windows, \
                   engine gauges) — for measuring their overhead; outcome \
                   counters and $(b,stats) stay on.")
  in
  let shard_id =
    Arg.(value & opt (some string) None
         & info [ "shard-id" ] ~docv:"NAME"
             ~doc:"Fleet identity of this daemon (set by $(b,ovo fleet up)): \
                   stamped on every access-log entry so merged fleet logs \
                   stay attributable.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the ordering service: a daemon with a bounded job queue, a \
          worker pool on the exact DP engine, a canonical result cache, \
          and an optional durable store (protocol in doc/service.md)")
    Term.(
      ret
        (const run $ listen_arg $ workers $ queue_cap $ cache_cap $ max_arity
       $ idle_timeout $ trace_arg $ store $ no_store $ fsync_arg
       $ mem_budget $ serve_prune $ orderer $ access_log $ prom
       $ no_telemetry $ shard_id))

let submit_cmd =
  let module P = Ovo_serve.Protocol in
  let run connect connect_timeout retries table expr pla pla_output blif
      signal family kind engine domains deadline_ms json ping stats_req
      metrics_req prom_req shutdown =
    let fail m = `Error (false, m) in
    let raw reply = print_endline (P.reply_to_line reply) in
    let request op =
      try
        Ovo_serve.Client.with_conn ?timeout:connect_timeout ~retries connect
        @@ fun c ->
        match Ovo_serve.Client.roundtrip c { P.id = 1; op } with
        | Error (`Msg m) -> fail m
        | Ok reply -> (
            match reply.P.body with
            | _ when json -> raw reply; `Ok ()
            | P.Pong -> print_endline "pong"; `Ok ()
            | P.Bye -> print_endline "bye"; `Ok ()
            | P.Ok_stats s ->
                print_endline (Ovo_obs.Json.to_string s); `Ok ()
            | P.Ok_metrics m ->
                print_endline (Ovo_obs.Json.to_string m); `Ok ()
            | P.Ok_prom text -> print_string text; `Ok ()
            | P.Ok_solve r ->
                Format.printf "digest            : %s@." r.P.digest;
                Format.printf "minimum size      : %d nodes (%d non-terminal)@."
                  r.P.size r.P.mincost;
                Format.printf "order (root first): %a@." pp_order r.P.order;
                Format.printf "level widths      : %a@." pp_order r.P.widths;
                Format.printf "cached            : %b@." r.P.cached;
                `Ok ()
            | P.Cancelled m ->
                Printf.eprintf "ovo: request cancelled: %s\n%!" m;
                exit 3
            | P.Error e ->
                fail
                  (Printf.sprintf "server error (%s): %s%s"
                     (P.error_code_to_string e.code) e.message
                     (match e.retry_after_ms with
                     | Some ms -> Printf.sprintf " (retry after %.0f ms)" ms
                     | None -> "")))
      with Unix.Unix_error (e, _, _) ->
        fail
          (Printf.sprintf "cannot reach server at %s: %s"
             (P.addr_to_string connect) (Unix.error_message e))
    in
    if ping then request P.Ping
    else if stats_req then request P.Stats
    else if metrics_req then request (P.Metrics P.Mjson)
    else if prom_req then request (P.Metrics P.Mprom)
    else if shutdown then request P.Shutdown
    else
      match load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family with
      | Error m -> fail m
      | Ok tt ->
          request
            (P.Solve
               { P.table = Ovo_boolfun.Truthtable.to_string tt; kind;
                 engine = resolve_engine engine domains; deadline_ms })
  in
  let connect =
    Arg.(
      value
      & opt addr_conv (Ovo_serve.Protocol.Unix_sock "ovo.sock")
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address (same forms as $(b,ovo serve --listen).)")
  in
  let connect_timeout =
    Arg.(value & opt (some float) None
         & info [ "connect-timeout" ] ~docv:"SECS"
             ~doc:"Bound each connection attempt (a TCP connect to a dead \
                   host can otherwise block for minutes).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a transient connection failure (refused, reset, \
                   missing socket, timeout) up to $(i,N) extra times with \
                   exponential backoff (50 ms doubling, capped at 2 s) — \
                   rides out a daemon or router restart.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-job deadline; an expired job is aborted between DP \
                   layers and answered with $(b,cancelled) (exit code 3).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the raw NDJSON reply line.")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Just check the server is up.")
  in
  let stats_req =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Fetch the server's stats report (uptime, queue depth, \
                   cache hit rate, per-endpoint latency percentiles).")
  in
  let metrics_req =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Fetch the server's aggregated telemetry as JSON (windowed \
                   rates, latency distributions, engine gauges; schema in \
                   doc/service.md).")
  in
  let prom_req =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Fetch the server's Prometheus text exposition.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the server to drain its queue and exit.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a function to a running $(b,ovo serve) daemon"
       ~exits:
         (Cmd.Exit.info 3 ~doc:"the request was cancelled (deadline exceeded)"
         :: Cmd.Exit.defaults))
    Term.(
      ret
        (const run $ connect $ connect_timeout $ retries $ table_arg
       $ expr_arg $ pla_arg $ pla_output_arg $ blif_arg $ signal_arg
       $ family_arg $ kind_arg $ engine_arg $ domains_arg $ deadline_ms
       $ json $ ping $ stats_req $ metrics_req $ prom_req $ shutdown))

(* ------------------------------------------------------------------ *)
(* router / fleet / bench serve                                        *)

let shards_of_addrs addrs =
  List.map
    (fun a ->
      { Ovo_router.Shard_map.name = Ovo_serve.Protocol.addr_to_string a;
        addr = a })
    addrs

let router_cmd =
  let run listen shards replicas hash health_interval connect_timeout
      backoff_ms idle_timeout prom =
    match Ovo_router.Shard_map.strategy_of_string hash with
    | Error (`Msg m) -> `Error (false, "--hash: " ^ m)
    | Ok strategy -> (
        match
          match prom with
          | None -> Ok None
          | Some spec ->
              Result.map Option.some
                (Ovo_serve.Prom_export.sink_of_string spec)
        with
        | Error (`Msg m) -> `Error (false, "--prom: " ^ m)
        | Ok prom -> (
            try
              Ovo_router.Router.run
                { Ovo_router.Router.listen; shards = shards_of_addrs shards;
                  strategy; replicas; health_interval; connect_timeout;
                  backoff_ms; idle_timeout; prom };
              `Ok ()
            with Invalid_argument m -> `Error (false, m)))
  in
  let listen =
    Arg.(
      value
      & opt addr_conv (Ovo_serve.Protocol.Unix_sock "ovo-router.sock")
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Address to accept clients on (same forms as $(b,ovo serve \
                --listen)).  Default $(b,ovo-router.sock).")
  in
  let shards =
    Arg.(
      required
      & opt (some (list addr_conv)) None
      & info [ "shards" ] ~docv:"ADDR,ADDR,..."
          ~doc:"Comma-separated backend $(b,ovo serve) addresses.  The \
                address string doubles as the shard's stable identity in \
                hashing and metrics, so keep it the same across restarts.")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Owners per key (primary + failovers).  With 2, any \
                   single shard can die without a $(b,shard_down).")
  in
  let hash =
    Arg.(value & opt string "rendezvous"
         & info [ "hash" ] ~docv:"STRATEGY"
             ~doc:"Consistent-hash strategy: $(b,rendezvous) (default), \
                   $(b,ring), or $(b,ring:VNODES).")
  in
  let health_interval =
    Arg.(value & opt float 2.0
         & info [ "health-interval" ] ~docv:"SECS"
             ~doc:"Seconds between health-probe sweeps (the data path \
                   also marks shards down/up on its own).")
  in
  let connect_timeout =
    Arg.(value & opt float 1.0
         & info [ "connect-timeout" ] ~docv:"SECS"
             ~doc:"Bound on each shard connection attempt.")
  in
  let backoff_ms =
    Arg.(value & opt float 50.
         & info [ "backoff-ms" ] ~docv:"MS"
             ~doc:"Failover backoff before trying the next replica \
                   (doubles per attempt, capped at 2 s).")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Shut down after this many seconds without a request.")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE|ADDR"
             ~doc:"Router-level Prometheus exposition (same forms as \
                   $(b,ovo serve --prom)): per-shard request counters, \
                   proxy latency histograms, health gauges.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Route the NDJSON solve protocol across a fleet of $(b,ovo serve) \
          shards: consistent-hash placement on the canonical table digest, \
          health-checked failover, scatter/gather $(b,solve_many) \
          (doc/fleet.md)")
    Term.(
      ret
        (const run $ listen $ shards $ replicas $ hash $ health_interval
       $ connect_timeout $ backoff_ms $ idle_timeout $ prom))

(* -- fleet: local process supervision over ovo serve + ovo router -- *)

let fleet_state_file dir = Filename.concat dir "fleet.json"

let fleet_read_state dir =
  let path = fleet_state_file dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no fleet state at %s (is the fleet up?)" path)
  else
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let module J = Ovo_obs.Json in
    match J.parse text with
    | Error m -> Error (Printf.sprintf "%s: %s" path m)
    | Ok j ->
        let shard_of sj =
          match
            ( Option.bind (J.member "name" sj) J.to_string_opt,
              Option.bind (J.member "addr" sj) J.to_string_opt,
              Option.bind (J.member "pid" sj) J.to_int_opt )
          with
          | Some name, Some addr, Some pid -> Some (name, addr, pid)
          | _ -> None
        in
        let shards =
          Option.value
            (Option.bind (J.member "shards" j) J.to_list_opt)
            ~default:[]
          |> List.filter_map shard_of
        in
        let router =
          Option.bind (J.member "router" j) (fun rj ->
              match
                ( Option.bind (J.member "addr" rj) J.to_string_opt,
                  Option.bind (J.member "pid" rj) J.to_int_opt )
              with
              | Some addr, Some pid -> Some (addr, pid)
              | _ -> None)
        in
        Ok (shards, router)

let fleet_write_state dir ~shards ~router =
  let module J = Ovo_obs.Json in
  let sj (name, addr, pid) =
    J.Obj
      [ ("name", J.String name); ("addr", J.String addr);
        ("pid", J.Int pid) ]
  in
  let j =
    J.Obj
      ([ ("shards", J.List (List.map sj shards)) ]
      @
      match router with
      | None -> []
      | Some (addr, pid) ->
          [ ("router", J.Obj [ ("addr", J.String addr); ("pid", J.Int pid) ])
          ])
  in
  let oc = open_out (fleet_state_file dir) in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc

(* Spawn one daemon process (ovo itself, re-invoked) with stdout and
   stderr appended to a per-process log file. *)
let spawn_daemon ~log args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let ping_addr ?(timeout = 1.0) addr =
  let module P = Ovo_serve.Protocol in
  match Ovo_serve.Client.connect ~timeout addr with
  | exception Unix.Unix_error _ -> false
  | c ->
      Fun.protect
        ~finally:(fun () -> Ovo_serve.Client.close c)
        (fun () ->
          match Ovo_serve.Client.roundtrip c { P.id = 0; op = P.Ping } with
          | Ok { P.body = P.Pong; _ } -> true
          | Ok _ | Error _ -> false)

let wait_ready ?(timeout = 15.) addr =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if ping_addr ~timeout:1.0 addr then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.1;
      go ()
    end
  in
  go ()

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let fleet_up_cmd =
  let run n dir workers access_log router replicas hash =
    let fail m = `Error (false, m) in
    if n < 1 then fail "need at least one shard"
    else if Sys.file_exists (fleet_state_file dir) then
      fail
        (Printf.sprintf
           "%s exists — a fleet may already be up; run `ovo fleet down \
            --dir %s` first"
           (fleet_state_file dir) dir)
    else begin
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let shard i =
        let name = Printf.sprintf "shard-%d" i in
        let sock = Filename.concat dir (name ^ ".sock") in
        let args =
          [ "serve"; "--listen"; sock; "--shard-id"; name; "--workers";
            string_of_int workers ]
          @
          if access_log then
            [ "--access-log"; Filename.concat dir (name ^ ".alog") ]
          else []
        in
        let pid =
          spawn_daemon ~log:(Filename.concat dir (name ^ ".log")) args
        in
        (name, sock, pid)
      in
      let shards = List.init n shard in
      let dead =
        List.filter
          (fun (_, sock, _) ->
            not (wait_ready (Ovo_serve.Protocol.Unix_sock sock)))
          shards
      in
      if dead <> [] then begin
        List.iter
          (fun (_, _, pid) ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          shards;
        fail
          (Printf.sprintf "shard(s) %s never became ready (see logs in %s)"
             (String.concat ", " (List.map (fun (n, _, _) -> n) dead))
             dir)
      end
      else begin
        let router_state =
          if not router then Ok None
          else begin
            let sock = Filename.concat dir "router.sock" in
            let args =
              [ "router"; "--listen"; sock; "--shards";
                String.concat "," (List.map (fun (_, s, _) -> s) shards);
                "--replicas"; string_of_int replicas; "--hash"; hash ]
            in
            let pid =
              spawn_daemon ~log:(Filename.concat dir "router.log") args
            in
            if wait_ready (Ovo_serve.Protocol.Unix_sock sock) then
              Ok (Some (sock, pid))
            else Error (sock, pid)
          end
        in
        match router_state with
        | Error (_, rpid) ->
            List.iter
              (fun (_, _, pid) ->
                try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
              ((("", "", rpid) :: shards));
            fail
              (Printf.sprintf "router never became ready (see %s)"
                 (Filename.concat dir "router.log"))
        | Ok router ->
            fleet_write_state dir
              ~shards:(List.map (fun (n, s, p) -> (n, "unix:" ^ s, p)) shards)
              ~router:(Option.map (fun (s, p) -> ("unix:" ^ s, p)) router);
            List.iter
              (fun (name, sock, pid) ->
                Printf.printf "%-9s pid %-7d %s\n" name pid sock)
              shards;
            (match router with
            | Some (sock, pid) ->
                Printf.printf "%-9s pid %-7d %s\n" "router" pid sock
            | None -> ());
            Printf.printf "state     %s\n" (fleet_state_file dir);
            `Ok ()
      end
    end
  in
  let n =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"N" ~doc:"Number of shard daemons to start.")
  in
  let dir =
    Arg.(value & opt string "ovo-fleet"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Fleet directory: sockets, per-process logs, and \
                   $(b,fleet.json) state live here.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker threads per shard.")
  in
  let access_log =
    Arg.(value & flag
         & info [ "access-log" ]
             ~doc:"Give each shard a structured access log in the fleet \
                   directory (entries carry the shard's identity).")
  in
  let router =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Also start $(b,ovo router) on $(i,DIR)/router.sock in \
                   front of the shards.")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Router replicas per key (with $(b,--router)).")
  in
  let hash =
    Arg.(value & opt string "rendezvous"
         & info [ "hash" ] ~docv:"STRATEGY"
             ~doc:"Router hash strategy (with $(b,--router)).")
  in
  Cmd.v
    (Cmd.info "up"
       ~doc:"Start $(i,N) local shard daemons (and optionally a router) \
             under $(i,DIR)")
    Term.(
      ret
        (const run $ n $ dir $ workers $ access_log $ router $ replicas
       $ hash))

let fleet_down_cmd =
  let run dir =
    match fleet_read_state dir with
    | Error m -> `Error (false, m)
    | Ok (shards, router) ->
        let procs =
          (match router with
          | Some (_, pid) -> [ ("router", pid) ]
          | None -> [])
          @ List.map (fun (name, _, pid) -> (name, pid)) shards
        in
        List.iter
          (fun (_, pid) ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          procs;
        (* graceful drain window, then escalate *)
        let deadline = Unix.gettimeofday () +. 5. in
        let rec linger () =
          if List.exists (fun (_, pid) -> pid_alive pid) procs then
            if Unix.gettimeofday () > deadline then
              List.iter
                (fun (_, pid) ->
                  if pid_alive pid then
                    try Unix.kill pid Sys.sigkill
                    with Unix.Unix_error _ -> ())
                procs
            else begin
              Unix.sleepf 0.1;
              linger ()
            end
        in
        linger ();
        List.iter
          (fun (name, pid) ->
            Printf.printf "%-9s pid %-7d stopped\n" name pid)
          procs;
        Sys.remove (fleet_state_file dir);
        `Ok ()
  in
  let dir =
    Arg.(value & opt string "ovo-fleet"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Fleet directory.")
  in
  Cmd.v
    (Cmd.info "down"
       ~doc:"Stop every process recorded in $(i,DIR)/fleet.json \
             (SIGTERM, then SIGKILL after 5 s)")
    Term.(ret (const run $ dir))

let fleet_status_cmd =
  let run dir =
    match fleet_read_state dir with
    | Error m -> `Error (false, m)
    | Ok (shards, router) ->
        let row name addr pid =
          let state =
            if not (pid_alive pid) then "dead"
            else
              match Ovo_serve.Protocol.addr_of_string addr with
              | Ok a -> if ping_addr a then "up" else "unresponsive"
              | Error _ -> "bad-addr"
          in
          Printf.printf "%-9s pid %-7d %-12s %s\n" name pid state addr
        in
        (match router with
        | Some (addr, pid) -> row "router" addr pid
        | None -> ());
        List.iter (fun (name, addr, pid) -> row name addr pid) shards;
        `Ok ()
  in
  let dir =
    Arg.(value & opt string "ovo-fleet"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Fleet directory.")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Ping every process in $(i,DIR)/fleet.json")
    Term.(ret (const run $ dir))

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Supervise a local serving fleet: $(b,up) starts $(i,N) shard \
          daemons (plus an optional router), $(b,down) stops them, \
          $(b,status) pings them (doc/fleet.md)")
    [ fleet_up_cmd; fleet_down_cmd; fleet_status_cmd ]

(* -- bench serve: measure an endpoint (daemon or router) under load -- *)

(* Per-request outcome, filled at the request's workload index by
   whichever client thread carried it (indices are disjoint, so the
   array needs no lock). *)
type load_outcome =
  | L_ok of { digest : string; mincost : int; size : int; cached : bool }
  | L_cancelled
  | L_shard_down
  | L_error

type load_run = {
  duration_s : float;
  outcomes : load_outcome option array;
  lat_ms : float array;
}

let bench_gen_tables ~seed ~tables ~arity =
  let st = Random.State.make [| seed; arity |] in
  List.init tables (fun _ ->
      String.init (1 lsl arity) (fun _ ->
          if Random.State.bool st then '1' else '0'))

let bench_workload ~seed ~tables ~arity ~repeat =
  let tabs = Array.of_list (bench_gen_tables ~seed ~tables ~arity) in
  let work =
    Array.init (tables * repeat) (fun i -> tabs.(i mod tables))
  in
  (* deterministic shuffle so repeats interleave instead of clumping *)
  let st = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length work - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = work.(i) in
    work.(i) <- work.(j);
    work.(j) <- tmp
  done;
  work

(* Drive [work] through [addr] with [clients] threads.  [batch] > 1
   sends every other chunk as one [solve_many] (the rest as single
   solves), so the endpoint sees mixed traffic. *)
let bench_run_load ~addr ~clients ~batch work =
  let module P = Ovo_serve.Protocol in
  let module C = Ovo_serve.Client in
  let n = Array.length work in
  let outcomes = Array.make n None in
  let lat_ms = Array.make n 0. in
  let next = Atomic.make 0 in
  let chunk = max 1 batch in
  let solve table =
    P.
      { table; kind = Ovo_core.Compact.Bdd; engine = Ovo_core.Engine.Seq;
        deadline_ms = None }
  in
  let note idx body ms =
    lat_ms.(idx) <- ms;
    outcomes.(idx) <-
      Some
        (match body with
        | P.Ok_solve r ->
            L_ok
              { digest = r.P.digest; mincost = r.P.mincost; size = r.P.size;
                cached = r.P.cached }
        | P.Cancelled _ -> L_cancelled
        | P.Error { code = P.Shard_down; _ } -> L_shard_down
        | _ -> L_error)
  in
  let client_loop () =
    let c = C.connect_retry ~timeout:2.0 ~retries:20 addr in
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        let rec go () =
          let lo = Atomic.fetch_and_add next chunk in
          if lo < n then begin
            let hi = min n (lo + chunk) in
            let started = Unix.gettimeofday () in
            let ms () = (Unix.gettimeofday () -. started) *. 1000. in
            (if chunk > 1 && lo / chunk mod 2 = 0 then begin
               (* one solve_many for the whole chunk *)
               let items =
                 List.init (hi - lo) (fun k -> solve work.(lo + k))
               in
               match C.send c { P.id = lo; op = P.Solve_many items } with
               | exception Sys_error _ ->
                   for k = lo to hi - 1 do
                     note k (P.Error
                               { code = P.Internal; message = "send failed";
                                 retry_after_ms = None })
                       (ms ())
                   done
               | () ->
                   for _ = lo to hi - 1 do
                     match C.recv c with
                     | Ok { P.item = Some j; body; _ } when lo + j < hi ->
                         note (lo + j) body (ms ())
                     | Ok _ | Error (`Msg _) -> ()
                   done
             end
             else
               for k = lo to hi - 1 do
                 match C.roundtrip c { P.id = k; op = P.Solve (solve work.(k)) }
                 with
                 | Ok { P.body; _ } -> note k body (ms ())
                 | Error (`Msg _) ->
                     note k
                       (P.Error
                          { code = P.Internal; message = "transport";
                            retry_after_ms = None })
                       (ms ())
               done);
            go ()
          end
        in
        go ())
  in
  let started = Unix.gettimeofday () in
  let threads =
    List.init (max 1 clients) (fun _ -> Thread.create client_loop ())
  in
  List.iter Thread.join threads;
  { duration_s = Unix.gettimeofday () -. started; outcomes; lat_ms }

let bench_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (float_of_int (n - 1) *. q +. 0.5)))

(* Wrong answers: two replies for the same digest must agree on
   (mincost, size) — the digest is the canonical key, so disagreement
   means a shard returned a non-optimal or corrupted result. *)
let bench_aggregate (r : load_run) =
  let ok = ref 0 and cached = ref 0 and cancelled = ref 0 in
  let shard_down = ref 0 and errors = ref 0 and wrong = ref 0 in
  let by_digest = Hashtbl.create 64 in
  Array.iter
    (fun o ->
      match o with
      | None -> incr errors  (* never answered: a lost reply is an error *)
      | Some (L_ok { digest; mincost; size; cached = c }) -> (
          incr ok;
          if c then incr cached;
          match Hashtbl.find_opt by_digest digest with
          | None -> Hashtbl.add by_digest digest (mincost, size)
          | Some (m, s) -> if (m, s) <> (mincost, size) then incr wrong)
      | Some L_cancelled -> incr cancelled
      | Some L_shard_down -> incr shard_down
      | Some L_error -> incr errors)
    r.outcomes;
  let sorted = Array.copy r.lat_ms in
  Array.sort compare sorted;
  let module J = Ovo_obs.Json in
  ( !wrong,
    J.Obj
      [ ("requests", J.Int (Array.length r.outcomes));
        ("ok", J.Int !ok);
        ("cached", J.Int !cached);
        ("cancelled", J.Int !cancelled);
        ("shard_down", J.Int !shard_down);
        ("errors", J.Int !errors);
        ("wrong", J.Int !wrong);
        ("duration_s", J.Float r.duration_s);
        ( "rps",
          J.Float
            (if r.duration_s > 0. then
               float_of_int (Array.length r.outcomes) /. r.duration_s
             else 0.) );
        ("p50_ms", J.Float (bench_percentile sorted 0.5));
        ("p99_ms", J.Float (bench_percentile sorted 0.99)) ]
  )

(* Answers must be bit-identical between two runs of the same workload
   (single daemon vs fleet): compare per-index. *)
let bench_cross_check a b =
  let wrong = ref 0 in
  Array.iteri
    (fun i oa ->
      match (oa, b.outcomes.(i)) with
      | Some (L_ok ra), Some (L_ok rb) ->
          if
            (ra.digest, ra.mincost, ra.size)
            <> (rb.digest, rb.mincost, rb.size)
          then incr wrong
      | _ -> ())
    a.outcomes;
  !wrong

let bench_serve_cmd =
  let module P = Ovo_serve.Protocol in
  let module J = Ovo_obs.Json in
  let run connect spawn clients tables arity repeat batch seed workers
      replicas out =
    let fail m = `Error (false, m) in
    let work = bench_workload ~seed ~tables ~arity ~repeat in
    let emit j =
      (match out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc (J.to_string j);
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "[ovo-bench] wrote %s\n%!" path);
      print_endline (J.to_string j)
    in
    match spawn with
    | None -> (
        (* measure an endpoint somebody else runs (daemon or router) *)
        match bench_run_load ~addr:connect ~clients ~batch work with
        | exception Unix.Unix_error (e, _, _) ->
            fail
              (Printf.sprintf "cannot reach %s: %s" (P.addr_to_string connect)
                 (Unix.error_message e))
        | r ->
            let _, agg = bench_aggregate r in
            emit
              (J.Obj
                 [ ("benchmark", J.String "serve_load");
                   ("addr", J.String (P.addr_to_string connect));
                   ("clients", J.Int clients);
                   ("tables", J.Int tables);
                   ("arity", J.Int arity);
                   ("repeat", J.Int repeat);
                   ("batch", J.Int batch);
                   ("load", agg) ]);
            `Ok ())
    | Some n when n < 1 -> fail "--spawn needs at least 1 shard"
    | Some n ->
        (* spawn a single-daemon baseline, then an n-shard fleet behind
           a router, and run the identical workload against both *)
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ovo-bench-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let serve_args name sock =
          [ "serve"; "--listen"; sock; "--shard-id"; name; "--workers";
            string_of_int workers ]
        in
        let stop_addr addr =
          try
            Ovo_serve.Client.with_conn ~timeout:2.0 addr @@ fun c ->
            ignore (Ovo_serve.Client.roundtrip c { P.id = 0; op = P.Shutdown })
          with Unix.Unix_error _ | Sys_error _ -> ()
        in
        let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> () in
        (* --- single-node baseline --- *)
        let ssock = Filename.concat dir "single.sock" in
        let spid =
          spawn_daemon ~log:(Filename.concat dir "single.log")
            (serve_args "single" ssock)
        in
        if not (wait_ready (P.Unix_sock ssock)) then begin
          (try Unix.kill spid Sys.sigkill with Unix.Unix_error _ -> ());
          fail (Printf.sprintf "baseline daemon never ready (logs in %s)" dir)
        end
        else begin
          let single = bench_run_load ~addr:(P.Unix_sock ssock) ~clients ~batch work in
          stop_addr (P.Unix_sock ssock);
          reap spid;
          (* --- fleet behind a router --- *)
          let shards =
            List.init n (fun i ->
                let name = Printf.sprintf "shard-%d" i in
                let sock = Filename.concat dir (name ^ ".sock") in
                let pid =
                  spawn_daemon ~log:(Filename.concat dir (name ^ ".log"))
                    (serve_args name sock)
                in
                (name, sock, pid))
          in
          let rsock = Filename.concat dir "router.sock" in
          let rpid =
            spawn_daemon ~log:(Filename.concat dir "router.log")
              [ "router"; "--listen"; rsock; "--shards";
                String.concat "," (List.map (fun (_, s, _) -> s) shards);
                "--replicas"; string_of_int replicas ]
          in
          let ready =
            List.for_all
              (fun (_, s, _) -> wait_ready (P.Unix_sock s))
              shards
            && wait_ready (P.Unix_sock rsock)
          in
          if not ready then begin
            List.iter
              (fun (_, _, pid) ->
                try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
              (("", "", rpid) :: shards);
            fail (Printf.sprintf "fleet never ready (logs in %s)" dir)
          end
          else begin
            let fleet = bench_run_load ~addr:(P.Unix_sock rsock) ~clients ~batch work in
            stop_addr (P.Unix_sock rsock);
            List.iter (fun (_, s, _) -> stop_addr (P.Unix_sock s)) shards;
            reap rpid;
            List.iter (fun (_, _, pid) -> reap pid) shards;
            let w1, single_j = bench_aggregate single in
            let w2, fleet_j = bench_aggregate fleet in
            let wrong = w1 + w2 + bench_cross_check single fleet in
            let rps j =
              match Option.bind (J.find_path [ "rps" ] j) J.to_float_opt with
              | Some v -> v
              | None -> 0.
            in
            let speedup =
              if rps single_j > 0. then rps fleet_j /. rps single_j else 0.
            in
            emit
              (J.Obj
                 [ ("benchmark", J.String "fleet");
                   ("shards", J.Int n);
                   ("replicas", J.Int replicas);
                   ("clients", J.Int clients);
                   ("tables", J.Int tables);
                   ("arity", J.Int arity);
                   ("repeat", J.Int repeat);
                   ("batch", J.Int batch);
                   ("workers_per_shard", J.Int workers);
                   ("single", single_j);
                   ("fleet", fleet_j);
                   ("speedup", J.Float speedup);
                   ("wrong", J.Int wrong) ]);
            `Ok ()
          end
        end
  in
  let connect =
    Arg.(
      value
      & opt addr_conv (Ovo_serve.Protocol.Unix_sock "ovo.sock")
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Endpoint to load (a daemon or a router); ignored with \
                $(b,--spawn).")
  in
  let spawn =
    Arg.(value & opt (some int) None
         & info [ "spawn" ] ~docv:"N"
             ~doc:"Self-contained comparison: spawn a 1-daemon baseline, \
                   then $(i,N) shard daemons behind a router, run the same \
                   workload against both and report the speedup.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"K"
             ~doc:"Concurrent client connections driving load.")
  in
  let tables =
    Arg.(value & opt int 40
         & info [ "tables" ] ~docv:"M" ~doc:"Distinct random tables.")
  in
  let arity =
    Arg.(value & opt int 10
         & info [ "arity" ] ~docv:"N" ~doc:"Arity of the random tables.")
  in
  let repeat =
    Arg.(value & opt int 2
         & info [ "repeat" ] ~docv:"R"
             ~doc:"Times each table is requested (repeats exercise the \
                   result cache).")
  in
  let batch =
    Arg.(value & opt int 8
         & info [ "batch" ] ~docv:"B"
             ~doc:"Chunk size: every other chunk goes as one \
                   $(b,solve_many), the rest as single solves (mixed \
                   traffic).  0 or 1 sends singles only.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S" ~doc:"Workload PRNG seed.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Workers per spawned daemon (with $(b,--spawn)).")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Router replicas per key (with $(b,--spawn)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the JSON report to $(i,FILE) (the CI gate \
                   reads $(b,BENCH_fleet.json)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive concurrent solve / $(b,solve_many) load at a daemon or \
          router and report throughput and latency quantiles; with \
          $(b,--spawn) $(i,N), benchmark an $(i,N)-shard fleet against a \
          single-daemon baseline on the identical workload")
    Term.(
      ret
        (const run $ connect $ spawn $ clients $ tables $ arity $ repeat
       $ batch $ seed $ workers $ replicas $ out))

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Load-driving benchmark clients (doc/benchmarks.md)")
    [ bench_serve_cmd ]

(* ------------------------------------------------------------------ *)
(* top / access-log                                                    *)

let top_cmd =
  let module P = Ovo_serve.Protocol in
  let module J = Ovo_obs.Json in
  (* one dashboard frame, rendered from the metrics-op JSON *)
  let render addr m =
    let buf = Buffer.create 1024 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let f path = Option.bind (J.find_path path m) J.to_float_opt in
    let i path = Option.bind (J.find_path path m) J.to_int_opt in
    let f0 path = Option.value (f path) ~default:0. in
    let i0 path = Option.value (i path) ~default:0 in
    bpf "ovo top — %s — uptime %.1fs\n" (P.addr_to_string addr)
      (f0 [ "uptime_s" ]);
    bpf "queue    %d/%d    workers %d/%d busy\n"
      (i0 [ "queue"; "depth" ]) (i0 [ "queue"; "cap" ])
      (i0 [ "workers"; "busy" ]) (i0 [ "workers"; "total" ]);
    bpf "rates    %.1f rps (1s)  %.1f (10s)  %.1f (60s)   %d requests/60s%s\n"
      (f0 [ "windows"; "rps_1s" ]) (f0 [ "windows"; "rps_10s" ])
      (f0 [ "windows"; "rps_60s" ])
      (i0 [ "windows"; "requests_60s" ])
      (match f [ "windows"; "cache_hit_rate_60s" ] with
      | None -> ""
      | Some r -> Printf.sprintf "  cache hit %.0f%%" (100. *. r));
    let dist label path =
      match i (path @ [ "count" ]) with
      | None | Some 0 -> ()
      | Some count ->
          bpf "%-8s p50 %.2fms  p90 %.2f  p99 %.2f  max %.2f  (n=%d)\n" label
            (f0 (path @ [ "p50_ms" ]))
            (f0 (path @ [ "p90_ms" ]))
            (f0 (path @ [ "p99_ms" ]))
            (f0 (path @ [ "max_ms" ]))
            count
    in
    dist "solve" [ "latency_ms"; "solve" ];
    dist "qwait" [ "latency_ms"; "queue_wait" ];
    bpf "outcomes ok %d  cached %d  cancelled %d  rejected %d  errors %d\n"
      (i0 [ "outcomes"; "ok" ]) (i0 [ "outcomes"; "cached" ])
      (i0 [ "outcomes"; "cancelled" ]) (i0 [ "outcomes"; "rejected" ])
      (i0 [ "outcomes"; "errors" ]);
    bpf "engine   layer %d (%d states)  pruned %d  spilled %d B\n"
      (i0 [ "engine"; "layer" ]) (i0 [ "engine"; "layer_states" ])
      (i0 [ "engine"; "states_pruned_total" ])
      (i0 [ "engine"; "spill_bytes_total" ]);
    bpf "gc       heap %d words  majors %d  rss %d B\n"
      (i0 [ "gc"; "heap_words" ]) (i0 [ "gc"; "major_collections" ])
      (i0 [ "gc"; "resident_bytes" ]);
    Buffer.contents buf
  in
  let run connect interval once =
    let fetch () =
      Ovo_serve.Client.with_conn connect @@ fun c ->
      match Ovo_serve.Client.roundtrip c { P.id = 1; op = P.Metrics P.Mjson } with
      | Ok { P.body = P.Ok_metrics m; _ } -> Ok m
      | Ok { P.body = P.Error { message; _ }; _ } -> Error message
      | Ok _ -> Error "unexpected reply to metrics op"
      | Error (`Msg m) -> Error m
    in
    try
      if once then
        match fetch () with
        | Ok m -> print_string (render connect m); `Ok ()
        | Error m -> `Error (false, m)
      else
        let rec loop () =
          (match fetch () with
          | Ok m ->
              (* clear screen + home, like top(1) *)
              print_string "\027[2J\027[H";
              print_string (render connect m);
              flush stdout
          | Error m -> Printf.eprintf "ovo top: %s\n%!" m);
          Unix.sleepf interval;
          loop ()
        in
        loop ()
    with Unix.Unix_error (e, _, _) ->
      `Error
        ( false,
          Printf.sprintf "cannot reach server at %s: %s"
            (P.addr_to_string connect) (Unix.error_message e) )
  in
  let connect =
    Arg.(
      value
      & opt addr_conv (Ovo_serve.Protocol.Unix_sock "ovo.sock")
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address (same forms as $(b,ovo serve --listen).)")
  in
  let interval =
    Arg.(value & opt float 1.
         & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh period.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print a single frame and exit (no screen clearing) — \
                   scriptable.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running $(b,ovo serve) daemon: \
          queue depth, worker occupancy, windowed request rates, latency \
          quantiles, engine progress")
    Term.(ret (const run $ connect $ interval $ once))

let access_log_cmd =
  let run path json =
    match Ovo_serve.Access_log.read path with
    | Error m -> `Error (false, m)
    | Ok (entries, recovery) ->
        List.iter
          (fun (e : Ovo_serve.Access_log.entry) ->
            if json then
              print_endline
                (Ovo_obs.Json.to_string (Ovo_serve.Access_log.entry_to_json e))
            else
              Printf.printf
                "%.3f #%d %-9s %s cached=%b queue=%.2fms solve=%.2fms \
                 bounds=[%d,%d]%s%s\n"
                e.Ovo_serve.Access_log.at e.Ovo_serve.Access_log.req_id
                e.Ovo_serve.Access_log.outcome
                (if e.Ovo_serve.Access_log.digest = "" then "-"
                 else e.Ovo_serve.Access_log.digest)
                e.Ovo_serve.Access_log.cached e.Ovo_serve.Access_log.queue_ms
                e.Ovo_serve.Access_log.solve_ms e.Ovo_serve.Access_log.lower
                e.Ovo_serve.Access_log.upper
                (* only fleet shards stamp an identity; plain-daemon
                   lines keep their exact pre-fleet shape *)
                (if e.Ovo_serve.Access_log.shard = "" then ""
                 else " shard=" ^ e.Ovo_serve.Access_log.shard)
                (if e.Ovo_serve.Access_log.detail = "" then ""
                 else " " ^ e.Ovo_serve.Access_log.detail))
          entries;
        if recovery.Ovo_store.Rlog.rec_discarded_bytes > 0 then
          Printf.eprintf "[ovo] %d trailing byte%s discarded (torn tail)\n%!"
            recovery.Ovo_store.Rlog.rec_discarded_bytes
            (if recovery.Ovo_store.Rlog.rec_discarded_bytes = 1 then ""
             else "s");
        `Ok ()
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"An access log written by $(b,ovo serve --access-log).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"One JSON object per entry (NDJSON).")
  in
  Cmd.v
    (Cmd.info "access-log"
       ~doc:"Dump a structured access log written by the serving daemon")
    Term.(ret (const run $ path $ json))

(* ------------------------------------------------------------------ *)
(* families                                                            *)

let families_cmd =
  let run max_arity exact =
    List.iter
      (fun (name, tt) ->
        let n = Ovo_boolfun.Truthtable.arity tt in
        if exact && n <= 12 then
          let r = Ovo_core.Fs.run tt in
          Format.printf "%-16s n=%-2d optimal-size=%d@." name n r.Ovo_core.Fs.size
        else Format.printf "%-16s n=%-2d@." name n)
      (Ovo_boolfun.Families.catalogue ~max_arity)
  in
  let max_arity =
    Arg.(value & opt int 12 & info [ "max-arity" ] ~doc:"Largest arity to list.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute optimal sizes.")
  in
  Cmd.v
    (Cmd.info "families" ~doc:"List the built-in benchmark function families")
    Term.(const run $ max_arity $ exact)

(* ------------------------------------------------------------------ *)
(* learn: dataset / eval-orderers / eval-order (doc/learning.md)       *)

let dataset_families_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "families" ] ~docv:"NAME,NAME,.."
        ~doc:
          "Restrict the corpus to these catalogue families (default: all; \
           list them with $(b,ovo families)).")

let dataset_cmd =
  let run families n_max random seed kind model out store trace_file profile
      progress =
    with_obs ~trace_file ~profile ~progress @@ fun trace ->
    try
      let open Ovo_learn.Dataset in
      let weights = load_weights model in
      let spec = { families; n_max; random; seed; kind } in
      let on_row (r : row) =
        Format.printf "  %-16s n=%d opt=%-4d scored=%-4d sifting=%d@."
          r.name r.n r.costs.c_opt r.costs.c_scored r.costs.c_sifting
      in
      let rows = generate ~trace ~weights ?store ~on_row spec in
      let oc = open_out out in
      output_string oc (to_ndjson rows);
      close_out oc;
      Format.printf "wrote %d rows: %s@." (List.length rows) out;
      `Ok ()
    with Failure m | Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let n_max =
    Arg.(value & opt int 12
         & info [ "n-max" ] ~docv:"N"
             ~doc:"Instantiation cap for scalable families (and the arity \
                   cap for $(b,--random) functions).")
  in
  let random =
    Arg.(value & opt int 0
         & info [ "random" ] ~docv:"N"
             ~doc:"Append $(i,N) seeded random functions to the corpus.")
  in
  let seed =
    Arg.(value & opt int 1987
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Corpus seed: every random choice (random functions, \
                   sampled permutations) derives from it, so the same spec \
                   always writes the byte-identical file.")
  in
  let out =
    Arg.(value & opt string "dataset.ndjson"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Output corpus, one JSON row per line (doc/learning.md).")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Resumable generation: completed rows are appended to a \
                   CRC-framed log keyed by the spec, so an interrupted run \
                   redoes only the in-flight row; the final corpus is \
                   byte-identical either way.")
  in
  Cmd.v
    (Cmd.info "dataset"
       ~doc:
         "Generate a ground-truth ordering corpus: exact optima from the \
          DP paired with structural features and heuristic baseline costs")
    Term.(
      ret
        (const run $ dataset_families_arg $ n_max $ random $ seed $ kind_arg
       $ model_arg $ out $ store $ trace_arg $ profile_arg $ progress_arg))

let eval_orderers_cmd =
  let run dataset model seed kind json trace_file profile progress =
    with_obs ~trace_file ~profile ~progress @@ fun trace ->
    try
      let ic = open_in dataset in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Ovo_learn.Dataset.of_ndjson text with
      | Error m -> `Error (false, dataset ^ ": " ^ m)
      | Ok rows ->
          let weights = load_weights model in
          let stats =
            Ovo_learn.Gap.evaluate ~trace ~kind
              (Ovo_learn.Gap.default_orderers ~weights ~kind ~seed ())
              rows
          in
          if json then
            List.iter
              (fun s ->
                print_endline
                  (Ovo_obs.Json.to_string (Ovo_learn.Gap.stat_to_json s)))
              stats
          else Ovo_learn.Gap.report Format.std_formatter stats;
          `Ok ()
    with Failure m | Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let dataset =
    Arg.(
      required
      & opt (some string) None
      & info [ "dataset" ] ~docv:"FILE"
          ~doc:"A corpus written by $(b,ovo dataset).")
  in
  let seed =
    Arg.(value & opt int 0x0BDD
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Seed of the random-permutation baseline.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"One JSON object per orderer (NDJSON).")
  in
  Cmd.v
    (Cmd.info "eval-orderers"
       ~doc:
         "Score ordering heuristics against the exact optima of a dataset: \
          mean/max/p50/p90 optimality gap and regret per orderer")
    Term.(
      ret
        (const run $ dataset $ model_arg $ seed $ kind_arg $ json
       $ trace_arg $ profile_arg $ progress_arg))

let eval_order_cmd =
  let run table expr pla pla_output blif signal family kind order =
    match load_function ~table ~expr ~pla ~pla_output ~blif ~signal ~family with
    | Error m -> `Error (false, m)
    | Ok tt -> (
        try
          let n = Ovo_boolfun.Truthtable.arity tt in
          let rf = Array.of_list order in
          if Array.length rf <> n then
            failwith
              (Printf.sprintf
                 "--order has %d entries but the function has %d variables"
                 (Array.length rf) n);
          let seen = Array.make n false in
          Array.iter
            (fun v ->
              if v < 0 || v >= n then
                failwith
                  (Printf.sprintf "--order entry %d is outside 0..%d" v (n - 1));
              if seen.(v) then
                failwith (Printf.sprintf "--order repeats variable %d" v);
              seen.(v) <- true)
            rf;
          let pi = Ovo_core.Eval_order.read_first rf in
          let given = Ovo_core.Eval_order.mincost ~kind tt pi in
          let r =
            Ovo_core.Fs.run ~kind
              ~prune:(Ovo_learn.Scorer.seeded_bound ~kind tt)
              tt
          in
          let opt = r.Ovo_core.Fs.mincost in
          Format.printf "given cost    : %d@." given;
          Format.printf "optimal cost  : %d@." opt;
          Format.printf "optimal order : %a@." pp_order
            (Ovo_core.Fs.read_first_order r);
          Format.printf "gap           : %.4f@."
            (if opt = 0 then 1.0 else float_of_int given /. float_of_int opt);
          Format.printf "regret        : %d@." (given - opt);
          `Ok ()
        with Failure m | Invalid_argument m -> `Error (false, m))
  in
  let term =
    Term.(
      ret
        (const run $ table_arg $ expr_arg $ pla_arg $ pla_output_arg
       $ blif_arg $ signal_arg $ family_arg $ kind_arg $ order_arg))
  in
  Cmd.v
    (Cmd.info "eval-order"
       ~doc:
         "Price a user-supplied ordering against the exact optimum: cost, \
          optimality gap and regret in nodes")
    term

let () =
  (* debug logging is enabled with OVO_VERBOSE=1 so every subcommand
     honours it without threading a flag through each term *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (Some
       (match Sys.getenv_opt "OVO_VERBOSE" with
       | Some ("1" | "true" | "debug") -> Logs.Debug
       | Some _ | None -> Logs.Warning))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ovo" ~version:"1.0.0"
      ~doc:"Optimal variable ordering for binary decision diagrams"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            optimize_cmd;
            widths_cmd;
            table1_cmd;
            table2_cmd;
            fig1_cmd;
            compare_cmd;
            shared_cmd;
            spectrum_cmd;
            show_cmd;
            families_cmd;
            dataset_cmd;
            eval_orderers_cmd;
            eval_order_cmd;
            serve_cmd;
            submit_cmd;
            router_cmd;
            fleet_cmd;
            bench_cmd;
            top_cmd;
            access_log_cmd;
          ]))
