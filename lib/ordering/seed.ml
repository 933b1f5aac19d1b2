module B = Ovo_core.Bound
module C = Ovo_core.Compact
module Mtable = Ovo_boolfun.Mtable

let sifting_upper_mtable ?trace ?kind ?max_passes mt =
  let r = Sifting.run_mtable ?trace ?kind ?max_passes mt in
  { B.ub_source = "sifting"; ub_value = r.Sifting.mincost }

let sifting_upper ?trace ?kind ?max_passes tt =
  sifting_upper_mtable ?trace ?kind ?max_passes (Mtable.of_truthtable tt)

let portfolio_upper ?trace ?kind ?rng ?extra tt =
  let r = Portfolio.run ?trace ?kind ?rng ?extra tt in
  {
    B.ub_source = "portfolio:" ^ r.Portfolio.best.Portfolio.method_name;
    ub_value = r.Portfolio.best.Portfolio.mincost;
  }

let bound_mtable ?trace ?(kind = C.Bdd) ?max_passes mt =
  B.make ~seed:(sifting_upper_mtable ?trace ~kind ?max_passes mt)
    (B.counting_lower kind mt)

let bound ?trace ?(kind = C.Bdd) ?(portfolio = false) ?rng tt =
  let seed =
    if portfolio then portfolio_upper ?trace ~kind ?rng tt
    else sifting_upper ?trace ~kind tt
  in
  B.make ~seed (B.counting_lower kind (Mtable.of_truthtable tt))

(* Replaying any permutation bottom-up gives an achievable weighted
   total, so either reading of the heuristic order's direction yields a
   sound seed — take the cheaper of the two. *)
let weighted_cost_of_chain ~kind ~weights mt order =
  let st = ref (C.initial kind mt) and total = ref 0 in
  Array.iter
    (fun h ->
      let next = C.materialise !st h in
      total := !total + (weights.(h) * C.width_of_last ~before:!st ~after:next);
      st := next)
    order;
  !total

let weighted_bound ?trace ?(kind = C.Bdd) ~weights mt =
  let r = Sifting.run_mtable ?trace ~kind mt in
  let rev = Array.of_list (List.rev (Array.to_list r.Sifting.order)) in
  let ub_value =
    min
      (weighted_cost_of_chain ~kind ~weights mt r.Sifting.order)
      (weighted_cost_of_chain ~kind ~weights mt rev)
  in
  B.make
    ~seed:{ B.ub_source = "sifting-weighted"; ub_value }
    (B.weighted_counting_lower ~weights kind mt)

(* No multi-rooted sifting exists yet; the identity placement is still
   an achievable shared total and typically within a small factor. *)
let shared_bound ?(kind = C.Bdd) mts =
  let base = C.initial_shared kind mts in
  let st = C.compact_chain base (Array.init base.C.n Fun.id) in
  B.make
    ~seed:{ B.ub_source = "shared-identity"; ub_value = st.C.mincost }
    (B.shared_counting_lower kind mts)
