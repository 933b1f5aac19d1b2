(* The cost counters and the Subset_dp functor, tested directly. *)

module M = Ovo_core.Metrics
module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable

let unit_tests =
  [
    Helpers.case "counters accumulate and diff" (fun () ->
        let m = M.create () in
        let before = M.snapshot m in
        let st = C.of_truthtable C.Bdd (T.of_string "01100110") in
        let _ = C.compact ~metrics:m st 0 in
        let d = M.diff (M.snapshot m) before in
        Helpers.check_int "cells = half the table" 4 d.M.s_table_cells;
        Helpers.check_int "one compaction" 1 d.M.s_compactions;
        Helpers.check_bool "nodes counted" true (d.M.s_node_creations >= 1));
    Helpers.case "reset zeroes" (fun () ->
        let m = M.create () in
        let _ = C.compact ~metrics:m (C.of_truthtable C.Bdd (T.of_string "0110")) 0 in
        M.reset m;
        let s = M.snapshot m in
        Helpers.check_int "cells" 0 s.M.s_table_cells;
        Helpers.check_int "compactions" 0 s.M.s_compactions;
        Helpers.check_int "nodes" 0 s.M.s_node_creations);
    Helpers.case "chain counts a geometric series of cells" (fun () ->
        let m = M.create () in
        let tt = T.random (Helpers.rng 1) 6 in
        let _ = Ovo_core.Eval_order.state ~metrics:m tt [| 0; 1; 2; 3; 4; 5 |] in
        let s = M.snapshot m in
        (* 32 + 16 + 8 + 4 + 2 + 1 *)
        Helpers.check_int "cells" 63 s.M.s_table_cells;
        Helpers.check_int "compactions" 6 s.M.s_compactions);
    Helpers.case "pp renders all fields" (fun () ->
        let s = M.snapshot (M.create ()) in
        let text = Format.asprintf "%a" M.pp s in
        Helpers.check_bool "mentions cells" true
          (String.length text > 0
          &&
          let has needle =
            let rec go i =
              i + String.length needle <= String.length text
              && (String.sub text i (String.length needle) = needle || go (i + 1))
            in
            go 0
          in
          has "cells" && has "compactions" && has "nodes"));
  ]

(* A toy COMPACTABLE instance: states are (remaining multiset as mask,
   accumulated cost); compacting variable i costs the number of smaller
   free variables (so different orders genuinely differ, with minimum
   achieved by taking big variables first... actually taking any order
   of a fixed set gives Sum over placements — we choose a cost where the
   min over orders is known in closed form). *)
module Toy = struct
  type state = { free : Ovo_core.Varset.t; cost : int }

  (* placing i costs i times the number of variables still free after
     it; the optimum over a set therefore places big indices early *)
  let compact st i =
    if not (Ovo_core.Varset.mem i st.free) then invalid_arg "toy";
    let free = Ovo_core.Varset.remove i st.free in
    { free; cost = st.cost + (i * Ovo_core.Varset.cardinal free) }

  let cost_if_compacted ~metrics:_ st i = (compact st i).cost
  let materialise ~metrics:_ st i = compact st i
  let mincost st = st.cost
  let free st = st.free
end

module Toy_dp = Ovo_core.Subset_dp.Make (Toy)

let toy_brute base vars =
  List.fold_left
    (fun acc order ->
      min acc
        (Array.fold_left Toy.compact base (Array.of_list order)).Toy.cost)
    max_int
    (Helpers.permutations vars)

let dp_tests =
  [
    Helpers.case "functor DP matches brute force on the toy problem" (fun () ->
        for n = 1 to 6 do
          let full = Ovo_core.Varset.full n in
          let base = { Toy.free = full; cost = 0 } in
          let st = Toy_dp.complete ~base full in
          Helpers.check_int
            (Printf.sprintf "n=%d" n)
            (toy_brute base (List.init n (fun i -> i)))
            st.Toy.cost
        done);
    Helpers.case "early stop produces exactly the layer" (fun () ->
        let full = Ovo_core.Varset.full 5 in
        let base = { Toy.free = full; cost = 0 } in
        let t = Toy_dp.run ~upto:2 ~base full in
        Helpers.check_int "layer" 10 (Hashtbl.length t.Toy_dp.layer);
        Hashtbl.iter
          (fun k (st : Toy.state) ->
            Helpers.check_int "free matches"
              (Ovo_core.Varset.cardinal (Ovo_core.Varset.diff full k))
              (Ovo_core.Varset.cardinal st.Toy.free))
          t.Toy_dp.layer);
    Helpers.case "invalid J rejected" (fun () ->
        let base = { Toy.free = Ovo_core.Varset.of_list [ 0; 1 ]; cost = 0 } in
        Alcotest.check_raises "bad J"
          (Invalid_argument "Subset_dp.run: J not free in the base state")
          (fun () -> ignore (Toy_dp.run ~base (Ovo_core.Varset.of_list [ 2 ]))));
  ]

let () =
  Alcotest.run "cost_dp" [ ("cost", unit_tests); ("subset_dp", dp_tests) ]
