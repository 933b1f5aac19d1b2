module Varset = Ovo_core.Varset
module Metrics = Ovo_core.Metrics

(* Modeled classical cost of [f ()]: table cells charged to the
   context's metrics (nested measurements compose — diffs telescope). *)
let measured_cells (ctx : Qctx.t) f =
  let before = Metrics.snapshot ctx.Qctx.metrics in
  let result = f () in
  let after = Metrics.snapshot ctx.Qctx.metrics in
  (result, float_of_int (Metrics.diff after before).Metrics.s_table_cells)

(* must mirror Predict.division_points *)
let division_points ~alpha n' =
  let clamped =
    Array.to_list alpha
    |> List.map (fun a ->
           let v = int_of_float (Float.round (a *. float_of_int n')) in
           max 1 (min (n' - 1) v))
  in
  let rec dedup last = function
    | [] -> []
    | v :: rest -> if v > last then v :: dedup v rest else dedup last rest
  in
  dedup 0 (List.sort compare clamped)

(* One span per Grover-style minimum search, carrying the recursion
   level, the candidate-set size and the search's own deltas of the
   context's {!Qsearch.stats} — oracle calls and modeled query depth.
   The deltas are inclusive: an oracle at level [t] recurses into
   level [t-1], whose searches nest as child spans. *)
let with_search_span (ctx : Qctx.t) ~name ~level ~candidates f =
  let s = ctx.Qctx.stats in
  let evals0 = s.Qsearch.oracle_evaluations in
  let queries0 = s.Qsearch.modeled_queries in
  Ovo_obs.Trace.with_span ctx.Qctx.trace ~cat:"quantum"
    ~args:(fun () ->
      [
        ("level", Ovo_obs.Json.Int level);
        ("candidates", Ovo_obs.Json.Int candidates);
        ( "oracle_evaluations",
          Ovo_obs.Json.Int (s.Qsearch.oracle_evaluations - evals0) );
        ( "modeled_queries",
          Ovo_obs.Json.Float (s.Qsearch.modeled_queries -. queries0) );
      ])
    name f

let log_src = Logs.Src.create "ovo.quantum" ~doc:"simulated quantum algorithms"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Make (Dp : Ovo_core.Subset_dp.DP) = struct
  type subroutine = {
    label : string;
    compose : Qctx.t -> Dp.state -> Varset.t -> Dp.state * float;
  }

  let name sub = sub.label
  let apply sub = sub.compose

  let fs_star =
    {
      label = "FS*";
      compose =
        (fun (ctx : Qctx.t) base j_set ->
          if Varset.is_empty j_set then (base, 0.)
          else
            Ovo_obs.Trace.with_span ctx.Qctx.trace ~cat:"quantum"
              ~args:(fun () ->
                [ ("vars", Ovo_obs.Json.Int (Varset.cardinal j_set)) ])
              "qdc.fs_star"
              (fun () ->
                measured_cells ctx (fun () ->
                    Dp.complete ~trace:ctx.Qctx.trace ~engine:ctx.Qctx.engine
                      ~metrics:ctx.Qctx.metrics ?membudget:ctx.Qctx.membudget
                      ?prune:ctx.Qctx.bound ~base j_set)));
    }

  (* A sub-sweep pruned against the context's global incumbent can die
     entirely ({!Ovo_core.Bound.Pruned_out}): no completion of that
     branch beats an already-achievable total.  Inside a Grover-style
     search that is just "worse than the incumbent" — the oracle reports
     a sentinel value no real branch can lose to, and if {e every}
     candidate died the search re-raises so the hopelessness propagates
     one recursion level up. *)
  let pruned_sentinel = (max_int, 0.)

  let oracle_catching_pruned f ksub =
    try f ksub with Ovo_core.Bound.Pruned_out _ -> pruned_sentinel

  let subsets_of l ~size =
    let acc = ref [] in
    Varset.iter_subsets_of l ~size (fun k -> acc := k :: !acc);
    Array.of_list !acc

  let simple_split ?alpha () =
    let alpha =
      match alpha with
      | Some a ->
          if a <= 0. || a >= 1. then invalid_arg "Opt_generic.simple_split";
          a
      | None ->
          let c = log 3. /. log 2. in
          (c -. 1.) /. ((2. *. c) -. 1.)
    in
    let compose (ctx : Qctx.t) base j_set =
      let n' = Varset.cardinal j_set in
      if n' = 0 then (base, 0.)
      else
        let k =
          max 1
            (min (n' - 1) (int_of_float (Float.round (alpha *. float_of_int n'))))
        in
        if k >= n' then fs_star.compose ctx base j_set
        else begin
          let candidates = subsets_of j_set ~size:k in
          let memo = Hashtbl.create (Array.length candidates) in
          let oracle =
            oracle_catching_pruned (fun ksub ->
                let st_k, cost_k =
                  measured_cells ctx (fun () ->
                      Dp.complete ~engine:ctx.Qctx.engine
                        ~metrics:ctx.Qctx.metrics
                        ?membudget:ctx.Qctx.membudget ?prune:ctx.Qctx.bound
                        ~base ksub)
                in
                let st, cost_rest =
                  fs_star.compose ctx st_k (Varset.diff j_set ksub)
                in
                Hashtbl.replace memo ksub st;
                (Dp.mincost st, cost_k +. cost_rest))
          in
          let outcome =
            with_search_span ctx ~name:"qsearch.simple_split" ~level:1
              ~candidates:(Array.length candidates) (fun () ->
                Qsearch.find_min ?rng:ctx.Qctx.rng ~epsilon:ctx.Qctx.epsilon
                  ~stats:ctx.Qctx.stats ~candidates ~oracle ())
          in
          match Hashtbl.find_opt memo outcome.Qsearch.argmin with
          | Some st -> (st, outcome.Qsearch.modeled_cost)
          | None ->
              raise
                (Ovo_core.Bound.Pruned_out
                   "simple_split: every candidate branch was pruned out")
        end
    in
    { label = "OptOBDD-simple"; compose }

  let opt_obdd ?label ~k ~alpha gamma =
    if Array.length alpha <> k then
      invalid_arg "Opt_obdd.opt_obdd: |alpha| <> k";
    Array.iteri
      (fun i a ->
        if a <= 0. || a >= 1. || (i > 0 && a < alpha.(i - 1)) then
          invalid_arg "Opt_obdd.opt_obdd: alpha not in (0,1) nondecreasing")
      alpha;
    let label =
      match label with
      | Some l -> l
      | None -> Printf.sprintf "OptOBDD*_%s(k=%d)" gamma.label k
    in
    let compose (ctx : Qctx.t) base j_set =
      let n' = Varset.cardinal j_set in
      if n' = 0 then (base, 0.)
      else
        match division_points ~alpha n' with
        | [] ->
            (* no interior division point: plain classical composition *)
            fs_star.compose ctx base j_set
        | b ->
            let b = Array.of_list b in
            let m = Array.length b in
            let pre, pre_cost =
              Ovo_obs.Trace.with_span ctx.Qctx.trace ~cat:"quantum"
                ~args:(fun () ->
                  [
                    ("vars", Ovo_obs.Json.Int n');
                    ("upto", Ovo_obs.Json.Int b.(0));
                  ])
                "qdc.preprocess"
                (fun () ->
                  measured_cells ctx (fun () ->
                      Dp.run ~trace:ctx.Qctx.trace ~engine:ctx.Qctx.engine
                        ~metrics:ctx.Qctx.metrics
                        ?membudget:ctx.Qctx.membudget ?prune:ctx.Qctx.bound
                        ~upto:b.(0) ~base j_set))
            in
            let rec divide_and_conquer l t =
              (* [state_of] raises Pruned_out for a pruned preprocess
                 state — absorbed by the enclosing oracle like any other
                 dead branch *)
              if t = 1 then (Dp.state_of pre l, 0.)
              else begin
                let candidates = subsets_of l ~size:b.(t - 2) in
                let memo = Hashtbl.create (Array.length candidates) in
                let oracle =
                  oracle_catching_pruned (fun ksub ->
                      let st_k, cost_k = divide_and_conquer ksub (t - 1) in
                      let st, cost_rest =
                        gamma.compose ctx st_k (Varset.diff l ksub)
                      in
                      Hashtbl.replace memo ksub st;
                      (Dp.mincost st, cost_k +. cost_rest))
                in
                let outcome =
                  with_search_span ctx
                    ~name:(Printf.sprintf "qsearch.level t=%d" t)
                    ~level:t ~candidates:(Array.length candidates) (fun () ->
                      Qsearch.find_min ?rng:ctx.Qctx.rng
                        ~epsilon:ctx.Qctx.epsilon ~stats:ctx.Qctx.stats
                        ~candidates ~oracle ())
                in
                match Hashtbl.find_opt memo outcome.Qsearch.argmin with
                | Some st -> (st, outcome.Qsearch.modeled_cost)
                | None ->
                    raise
                      (Ovo_core.Bound.Pruned_out
                         (Printf.sprintf
                            "opt_obdd level t=%d: every candidate branch \
                             was pruned out"
                            t))
              end
            in
            let state, search_cost = divide_and_conquer j_set (m + 1) in
            Log.debug (fun msg ->
                msg "%s over %d vars: division points [%s], preprocess %.3e cells, search %.3e modeled"
                  label n'
                  (String.concat ";" (Array.to_list (Array.map string_of_int b)))
                  pre_cost search_cost);
            (state, pre_cost +. search_cost)
    in
    { label; compose }

  let theorem10 ?(k = 6) () =
    opt_obdd
      ~label:(Printf.sprintf "OptOBDD(k=%d)" k)
      ~k ~alpha:(Params.table1_alpha k) fs_star

  let tower ~depth =
    if depth < 1 || depth > Array.length Params.table2 then
      invalid_arg "Opt_obdd.tower: depth out of range";
    let rec build i =
      let inner = if i = 0 then fs_star else build (i - 1) in
      opt_obdd
        ~label:(Printf.sprintf "Gamma_%d" (i + 1))
        ~k:6 ~alpha:(Params.table2_alpha i) inner
    in
    build (depth - 1)

  let run ctx sub ~base j_set = sub.compose ctx base j_set
end
