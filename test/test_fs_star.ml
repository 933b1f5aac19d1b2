module Fs = Ovo_core.Fs
module Fss = Ovo_core.Fs_star
module C = Ovo_core.Compact
module V = Ovo_core.Varset
module T = Ovo_boolfun.Truthtable

(* Brute-force MINCOST<I, K> reference: minimum node count of the bottom
   |I|+|K| levels over orderings that list I (in any internal order)
   first and then K. *)
let brute_seg_mincost ?(kind = C.Bdd) tt i_set k_set =
  let base = C.of_truthtable kind tt in
  let best = ref max_int in
  List.iter
    (fun pi ->
      List.iter
        (fun pk ->
          let st = C.compact_chain base (Array.of_list (pi @ pk)) in
          if st.C.mincost < !best then best := st.C.mincost)
        (Helpers.permutations (V.elements k_set)))
    (Helpers.permutations (V.elements i_set));
  !best

let unit_tests =
  [
    Helpers.case "full run from empty base equals FS" (fun () ->
        let tt = Ovo_boolfun.Families.hidden_weighted_bit 5 in
        let base = C.of_truthtable C.Bdd tt in
        let st = Fss.complete ~base (C.free base) in
        Helpers.check_int "mincost" (Fs.run tt).Fs.mincost st.C.mincost);
    Helpers.case "upto stops at the requested layer" (fun () ->
        let tt = Ovo_boolfun.Families.parity 5 in
        let base = C.of_truthtable C.Bdd tt in
        let t = Fss.run ~upto:2 ~base (C.free base) in
        Helpers.check_int "layer size" 10 (Hashtbl.length t.Fss.Dp.layer);
        (* mincosts: C(5,1) + C(5,2) + empty = 16 *)
        Helpers.check_int "summaries" 16 (Hashtbl.length t.Fss.Dp.mincosts);
        Hashtbl.iter
          (fun k _ -> Helpers.check_int "card" 2 (V.cardinal k))
          t.Fss.Dp.layer);
    Helpers.case "j_set must be free" (fun () ->
        let tt = T.of_string "0110" in
        let base = C.compact (C.of_truthtable C.Bdd tt) 0 in
        Alcotest.check_raises "not free"
          (Invalid_argument "Fs_star.run: J not free in the base state")
          (fun () -> ignore (Fss.run ~base (V.of_list [ 0 ]))));
    Helpers.case "bad upto rejected" (fun () ->
        let tt = T.of_string "0110" in
        let base = C.of_truthtable C.Bdd tt in
        Alcotest.check_raises "upto" (Invalid_argument "Fs_star.run: bad upto")
          (fun () -> ignore (Fss.run ~upto:3 ~base (V.full 2))));
    Helpers.case "empty J returns the base" (fun () ->
        let tt = T.of_string "0110" in
        let base = C.of_truthtable C.Bdd tt in
        let t = Fss.run ~base V.empty in
        Helpers.check_int "mincost" 0 (Fss.mincost_of t V.empty);
        Helpers.check_bool "state" true (Fss.state_of t V.empty == base));
  ]

let props =
  [
    QCheck.Test.make
      ~name:"segment-constrained optimum matches brute force (Lemma 8)"
      ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        (* random disjoint I, J *)
        let i_set = ref V.empty and j_set = ref V.empty in
        for v = 0 to n - 1 do
          match Random.State.int st 3 with
          | 0 -> i_set := V.add v !i_set
          | 1 -> j_set := V.add v !j_set
          | _ -> ()
        done;
        QCheck.assume (not (V.is_empty !j_set));
        (* base: optimal over I via a full FS* from scratch *)
        let base0 = C.of_truthtable C.Bdd tt in
        let base =
          if V.is_empty !i_set then base0
          else Fss.complete ~base:base0 !i_set
        in
        let st' = Fss.complete ~base !j_set in
        st'.C.mincost = brute_seg_mincost tt !i_set !j_set);
    QCheck.Test.make ~name:"composing two FS* runs equals one (consistency)"
      ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        (* MINCOST<(A,B)> computed as FS*(FS*(∅,A),B) must match the brute
           force over segment-constrained orders *)
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let a = ref V.empty and b = ref V.empty in
        for v = 0 to n - 1 do
          if Random.State.bool st then a := V.add v !a else b := V.add v !b
        done;
        QCheck.assume (not (V.is_empty !a) && not (V.is_empty !b));
        let base0 = C.of_truthtable C.Bdd tt in
        let sa = Fss.complete ~base:base0 !a in
        let sab = Fss.complete ~base:sa !b in
        sab.C.mincost = brute_seg_mincost tt !a !b);
    QCheck.Test.make ~name:"layer states carry consistent orders" ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let k = 1 + (seed mod n) in
        let base = C.of_truthtable C.Bdd tt in
        let t = Fss.run ~upto:k ~base (C.free base) in
        let ok = ref true in
        Hashtbl.iter
          (fun kset (st : C.state) ->
            (* the achieved suborder must be a permutation of K and the
               state's cost must equal re-evaluating that suborder *)
            let order = Array.of_list (C.order st) in
            if V.of_list (Array.to_list order) <> kset then ok := false;
            let re = C.compact_chain base order in
            if re.C.mincost <> st.C.mincost then ok := false)
          t.Fss.Dp.layer;
        !ok);
    QCheck.Test.make ~name:"ZDD segments match brute force" ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:4 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let i_set = ref V.empty in
        for v = 0 to n - 1 do
          if Random.State.bool st then i_set := V.add v !i_set
        done;
        let j_set = V.diff (V.full n) !i_set in
        QCheck.assume (not (V.is_empty j_set));
        let base0 = C.of_truthtable C.Zdd tt in
        let base =
          if V.is_empty !i_set then base0
          else Fss.complete ~base:base0 !i_set
        in
        let s = Fss.complete ~base j_set in
        s.C.mincost = brute_seg_mincost ~kind:C.Zdd tt !i_set j_set);
  ]

let () =
  Alcotest.run "fs_star"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
