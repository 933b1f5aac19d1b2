module C = Ovo_core.Compact
module D = Ovo_core.Diagram
module T = Ovo_boolfun.Truthtable

let diagram_of ?(kind = C.Bdd) tt order =
  D.of_state (C.compact_chain (C.of_truthtable kind tt) order)

let unit_tests =
  [
    Helpers.case "of_state requires completion" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        Alcotest.check_raises "incomplete"
          (Invalid_argument "Diagram.of_state: state not complete") (fun () ->
            ignore (D.of_state st)));
    Helpers.case "xor diagram shape" (fun () ->
        let d = diagram_of (T.of_string "0110") [| 0; 1 |] in
        Helpers.check_int "nodes" 3 (D.node_count d);
        Helpers.check_int "terminals" 2 (D.reachable_terminals d);
        Helpers.check_int "size" 5 (D.size d);
        Alcotest.(check (list int)) "widths" [ 2; 1 ]
          (Array.to_list (D.level_widths d)));
    Helpers.case "constant function diagram" (fun () ->
        let d = diagram_of (T.const 3 true) [| 0; 1; 2 |] in
        Helpers.check_int "nodes" 0 (D.node_count d);
        Helpers.check_int "terminals" 1 (D.reachable_terminals d);
        Helpers.check_int "size" 1 (D.size d);
        Helpers.check_int "eval" 1 (D.eval d 5));
    Helpers.case "eval follows edges" (fun () ->
        let tt = T.of_string "00010001" in
        (* f = x0 & x1 over 3 vars *)
        let d = diagram_of tt [| 2; 1; 0 |] in
        Helpers.check_bool "11" true (D.eval_bool d 0b011);
        Helpers.check_bool "01" false (D.eval_bool d 0b001);
        Helpers.check_bool "with x2" true (D.eval_bool d 0b111));
    Helpers.case "to_truthtable round trip" (fun () ->
        let tt = T.of_string "0111010010010111" in
        let d = diagram_of tt [| 3; 1; 0; 2 |] in
        Helpers.check_bool "round" true (T.equal (D.to_truthtable d) tt));
    Helpers.case "to_truthtable rejects multi-terminal" (fun () ->
        let mt = Ovo_boolfun.Mtable.of_array ~values:3 [| 0; 1; 2; 1 |] in
        let d = D.of_state (C.compact_chain (C.initial C.Bdd mt) [| 0; 1 |]) in
        Alcotest.check_raises "multi"
          (Invalid_argument "Diagram.to_truthtable: not a two-terminal diagram")
          (fun () -> ignore (D.to_truthtable d)));
    Helpers.case "check accepts the right table" (fun () ->
        let tt = T.of_string "01100110" in
        let d = diagram_of tt [| 1; 0; 2 |] in
        Helpers.check_bool "check" true (D.check_tt d tt);
        Helpers.check_bool "check wrong" false (D.check_tt d (T.not_ tt)));
    Helpers.case "dot output mentions every level variable" (fun () ->
        let d = diagram_of (Ovo_boolfun.Families.parity 3) [| 0; 1; 2 |] in
        let dot = D.to_dot d in
        List.iter
          (fun v ->
            Helpers.check_bool
              (Printf.sprintf "x%d present" v)
              true
              (let needle = Printf.sprintf "x%d" v in
               let rec contains i =
                 i + String.length needle <= String.length dot
                 && (String.sub dot i (String.length needle) = needle
                    || contains (i + 1))
               in
               contains 0))
          [ 0; 1; 2 ]);
    Helpers.case "zdd eval kills suppressed set bits" (fun () ->
        (* f = !x0 & !x1 (only the empty assignment): the ZDD is just the
           1 terminal; any set bit must evaluate to 0 *)
        let tt = T.of_string "1000" in
        let d = diagram_of ~kind:C.Zdd tt [| 0; 1 |] in
        Helpers.check_int "no nodes" 0 (D.node_count d);
        Helpers.check_int "f(00)" 1 (D.eval d 0);
        Helpers.check_int "f(01)" 0 (D.eval d 1);
        Helpers.check_int "f(11)" 0 (D.eval d 3));
  ]

let serialization_tests =
  [
    Helpers.case "serialize/deserialize round trip on an example" (fun () ->
        let d = diagram_of (Ovo_boolfun.Families.hidden_weighted_bit 5) [| 2; 0; 4; 1; 3 |] in
        let d' = D.deserialize (D.serialize d) in
        Helpers.check_int "size" (D.size d) (D.size d');
        Helpers.check_bool "semantics" true
          (T.equal (D.to_truthtable d) (D.to_truthtable d')));
    Helpers.case "zdd kind survives the round trip" (fun () ->
        let tt = T.of_string "10010110" in
        let d = diagram_of ~kind:C.Zdd tt [| 1; 2; 0 |] in
        let d' = D.deserialize (D.serialize d) in
        Helpers.check_bool "checks as ZDD" true (D.check_tt d' tt));
    Helpers.case "malformed inputs rejected" (fun () ->
        let reject text =
          match D.deserialize text with
          | _ -> Alcotest.failf "expected failure on %S" text
          | exception Failure _ -> ()
        in
        reject "";
        reject "ovo-diagram 2\nkind bdd\nn 1\nterminals 2\norder 0\nroot 0\nnodes 0\n";
        reject "ovo-diagram 1\nkind qdd\nn 1\nterminals 2\norder 0\nroot 0\nnodes 0\n";
        reject
          "ovo-diagram 1\nkind bdd\nn 2\nterminals 2\norder 0 0\nroot 0\nnodes 0\n";
        reject
          "ovo-diagram 1\nkind bdd\nn 1\nterminals 2\norder 0\nroot 9\nnodes 0\n";
        reject
          "ovo-diagram 1\nkind bdd\nn 1\nterminals 2\norder 0\nroot 2\nnodes 1\n2 0 0 9\n");
    Helpers.case "non-descending edges rejected" (fun () ->
        (* the parent tests the bottom-level variable yet points at a
           node of the level above it *)
        let text =
          "ovo-diagram 1\nkind bdd\nn 2\nterminals 2\norder 0 1\nroot 2\nnodes 2\n\
           2 0 0 3\n3 1 0 1\n"
        in
        match D.deserialize text with
        | _ -> Alcotest.fail "expected failure"
        | exception Failure _ -> ());
    Helpers.case "of_parts range-checks a node before following an edge to it"
      (fun () ->
        (* node 2 points at node 3, whose variable is out of range *)
        Alcotest.check_raises "range"
          (Failure "Diagram.of_parts: node 3: variable out of range")
          (fun () ->
            ignore
              (D.of_parts ~kind:C.Bdd ~n:2 ~num_terminals:2 ~order:[| 0; 1 |]
                 ~nodes:
                   [| { D.var = 0; lo = 3; hi = 0 }; { D.var = 99; lo = 0; hi = 1 } |]
                 ~root:2)));
    Helpers.case "non-numeric header field gives a line-numbered error"
      (fun () ->
        Alcotest.check_raises "n x"
          (Failure "Diagram.deserialize: line 3: not an integer: \"x\"")
          (fun () ->
            ignore
              (D.deserialize
                 "ovo-diagram 1\nkind bdd\nn x\nterminals 2\norder 0\nroot 0\nnodes 0\n")));
  ]

let props =
  [
    QCheck.Test.make ~name:"BDD diagram eval equals truth table" ~count:200
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        D.check_tt (diagram_of tt order) tt);
    QCheck.Test.make ~name:"ZDD diagram eval equals truth table" ~count:200
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        D.check_tt (diagram_of ~kind:C.Zdd tt order) tt);
    QCheck.Test.make ~name:"level widths sum to node count" ~count:200
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        let d = diagram_of tt order in
        Array.fold_left ( + ) 0 (D.level_widths d) = D.node_count d);
    QCheck.Test.make ~name:"serialization round trip preserves everything"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        let d = diagram_of tt order in
        let d' = D.deserialize (D.serialize d) in
        D.check_tt d' tt
        && D.size d' = D.size d
        && D.level_widths d' = D.level_widths d);
    QCheck.Test.make ~name:"multi-terminal diagram eval equals mtable"
      ~count:200
      (QCheck.pair (Helpers.arb_mtable ~lo:1 ~hi:5 ~values:4 ()) QCheck.small_int)
      (fun (mt, seed) ->
        let order = Helpers.perm_of_seed seed (Ovo_boolfun.Mtable.arity mt) in
        let d = D.of_state (C.compact_chain (C.initial C.Bdd mt) order) in
        D.check d mt);
  ]

let () =
  Alcotest.run "diagram"
    [
      ("unit", unit_tests);
      ("serialization", serialization_tests);
      ("props", Helpers.qtests props);
    ]
