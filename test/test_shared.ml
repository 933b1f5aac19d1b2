module S = Ovo_core.Shared
module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable

(* brute-force shared optimum: chain every permutation over the shared
   multi-table state *)
let shared_base ?(kind = C.Bdd) tts =
  C.initial_shared kind (Array.map Ovo_boolfun.Mtable.of_truthtable tts)

let brute_shared ?kind tts =
  let base = shared_base ?kind tts in
  let n = T.arity tts.(0) in
  List.fold_left
    (fun acc order -> min acc (C.compact_chain base order).C.mincost)
    max_int (Helpers.all_orders n)

let gen_pair =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    let table = string_size ~gen:(oneofl [ '0'; '1' ]) (return (1 lsl n)) in
    pair table table >|= fun (a, b) ->
    [| T.of_string a; T.of_string b |])

let arb_pair =
  QCheck.make
    ~print:(fun tts ->
      String.concat "/" (Array.to_list (Array.map T.to_string tts)))
    gen_pair

let unit_tests =
  [
    Helpers.case "sharing counts a common subfunction once" (fun () ->
        (* f0 = x0 & x1, f1 = (x0 & x1) | x2: the x0&x1 sub-diagram is
           shared, so the shared count is below the sum of the parts *)
        let f0 = T.( &&& ) (T.var 3 0) (T.var 3 1) in
        let f1 = T.( ||| ) f0 (T.var 3 2) in
        let r = S.minimize [| f0; f1 |] in
        let alone0 = (Ovo_core.Fs.run f0).Ovo_core.Fs.mincost in
        let alone1 = (Ovo_core.Fs.run f1).Ovo_core.Fs.mincost in
        Helpers.check_bool "shared < sum" true (r.S.mincost < alone0 + alone1);
        Helpers.check_bool "shared >= max" true
          (r.S.mincost >= max alone0 alone1));
    Helpers.case "identical roots cost as one" (fun () ->
        let f = Ovo_boolfun.Families.multiplexer ~select:2 in
        let single = (Ovo_core.Fs.run f).Ovo_core.Fs.mincost in
        let r = S.minimize [| f; f; f |] in
        Helpers.check_int "same as single" single r.S.mincost);
    Helpers.case "single root equals plain FS" (fun () ->
        let f = Ovo_boolfun.Families.hidden_weighted_bit 5 in
        let r = S.minimize [| f |] in
        Helpers.check_int "mincost" (Ovo_core.Fs.run f).Ovo_core.Fs.mincost
          r.S.mincost);
    Helpers.case "2-bit multiplier shared optimum" (fun () ->
        let outputs =
          Array.init 4 (fun j ->
              T.of_fun 4 (fun code ->
                  ((code land 3) * (code lsr 2)) land (1 lsl j) <> 0))
        in
        let r = S.minimize outputs in
        Helpers.check_int "matches brute force" (brute_shared outputs)
          r.S.mincost;
        Helpers.check_bool "valid" true
          (S.check r.S.state
             (Array.map Ovo_boolfun.Mtable.of_truthtable outputs)));
    Helpers.case "roots of complete state" (fun () ->
        let f0 = T.var 2 0 and f1 = T.const 2 true in
        let r = S.minimize [| f0; f1 |] in
        let roots = S.roots r.S.state in
        Helpers.check_int "two roots" 2 (Array.length roots);
        Helpers.check_int "constant root is the terminal" 1 roots.(1));
    Helpers.case "mismatched arities rejected" (fun () ->
        Alcotest.check_raises "arity"
          (Invalid_argument "Compact.initial_shared: arity mismatch")
          (fun () -> ignore (shared_base [| T.var 2 0; T.var 3 0 |])));
    Helpers.case "empty root array rejected" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Compact.initial_shared: need at least one root")
          (fun () -> ignore (shared_base [||])));
    Helpers.case "to_dot emits all roots" (fun () ->
        let r = S.minimize [| T.var 2 0; T.var 2 1 |] in
        let dot = S.to_dot r.S.state in
        Helpers.check_bool "r0" true
          (String.length dot > 0
          &&
          let has needle =
            let rec go i =
              i + String.length needle <= String.length dot
              && (String.sub dot i (String.length needle) = needle || go (i + 1))
            in
            go 0
          in
          has "r0" && has "r1"));
  ]

let props =
  [
    QCheck.Test.make ~name:"shared optimum equals brute force" ~count:60
      arb_pair
      (fun tts -> (S.minimize tts).S.mincost = brute_shared tts);
    QCheck.Test.make ~name:"shared optimum equals brute force (ZDD)" ~count:40
      arb_pair
      (fun tts ->
        (S.minimize ~kind:C.Zdd tts).S.mincost = brute_shared ~kind:C.Zdd tts);
    QCheck.Test.make ~name:"every root evaluates to its function" ~count:60
      arb_pair
      (fun tts ->
        let r = S.minimize tts in
        S.check r.S.state (Array.map Ovo_boolfun.Mtable.of_truthtable tts));
    QCheck.Test.make
      ~name:"shared cost brackets: >= each single optimum, <= sum under its own order"
      ~count:60 arb_pair
      (fun tts ->
        let r = S.minimize tts in
        let singles =
          Array.to_list
            (Array.map (fun tt -> (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost) tts)
        in
        (* lower bound: the shared diagram contains each root's reduced
           diagram under the shared order, which is at least that root's
           own optimum; upper bound: node sharing can only help relative
           to keeping the per-root diagrams separate at the same order *)
        let per_root_at_shared_order =
          Array.to_list
            (Array.map
               (fun tt -> Ovo_core.Eval_order.mincost tt r.S.order)
               tts)
        in
        r.S.mincost >= List.fold_left max 0 singles
        && r.S.mincost <= List.fold_left ( + ) 0 per_root_at_shared_order);
    QCheck.Test.make ~name:"order returned achieves the reported cost"
      ~count:60 arb_pair
      (fun tts ->
        let r = S.minimize tts in
        let re = C.compact_chain (shared_base tts) r.S.order in
        re.C.mincost = r.S.mincost);
    QCheck.Test.make ~name:"one root is plain FS (BDD and ZDD)" ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        List.for_all
          (fun kind ->
            let r = S.minimize ~kind [| tt |] in
            let fs = Ovo_core.Fs.run ~kind tt in
            r.S.mincost = fs.Ovo_core.Fs.mincost
            && r.S.order = fs.Ovo_core.Fs.order
            && Array.map Ovo_core.Diagram.serialize (S.diagrams r.S.state)
               = [| Ovo_core.Diagram.serialize fs.Ovo_core.Fs.diagram |])
          [ C.Bdd; C.Zdd ]);
  ]

let diagram_props =
  [
    QCheck.Test.make ~name:"per-root diagram views are valid and shared"
      ~count:60 arb_pair
      (fun tts ->
        let r = S.minimize tts in
        let views = S.diagrams r.S.state in
        Array.length views = Array.length tts
        && Array.for_all2
             (fun d tt -> Ovo_core.Diagram.check_tt d tt)
             views tts);
    QCheck.Test.make
      ~name:"per-root views serialize and reload independently" ~count:40
      arb_pair
      (fun tts ->
        let r = S.minimize tts in
        let views = S.diagrams r.S.state in
        Array.for_all2
          (fun d tt ->
            Ovo_core.Diagram.check_tt
              (Ovo_core.Diagram.deserialize (Ovo_core.Diagram.serialize d))
              tt)
          views tts);
  ]

let () =
  Alcotest.run "shared"
    [
      ("unit", unit_tests);
      ("props", Helpers.qtests props);
      ("diagrams", Helpers.qtests diagram_props);
    ]
