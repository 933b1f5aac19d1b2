let check_permutation n order =
  if Array.length order <> n then invalid_arg "Eval_order: wrong length";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Eval_order: not a permutation";
      seen.(v) <- true)
    order

let state_mtable ?(kind = Compact.Bdd) ?(metrics = Metrics.create ()) mt
    order =
  check_permutation (Ovo_boolfun.Mtable.arity mt) order;
  Array.fold_left
    (fun st i -> Compact.compact ~metrics st i)
    (Compact.initial kind mt) order

let state ?kind ?metrics tt order =
  state_mtable ?kind ?metrics (Ovo_boolfun.Mtable.of_truthtable tt) order

let mincost ?kind tt order = (state ?kind tt order).Compact.mincost

let diagram ?kind tt order = Diagram.of_state (state ?kind tt order)

let size ?kind tt order = Diagram.size (diagram ?kind tt order)

let widths ?kind tt order = Diagram.level_widths (diagram ?kind tt order)

let read_first order =
  let n = Array.length order in
  Array.init n (fun i -> order.(n - 1 - i))
