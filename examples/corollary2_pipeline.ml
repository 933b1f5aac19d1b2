(* Corollary 2 end-to-end: the optimiser does not need a truth table as
   primary input — any polynomial-time-evaluable representation works,
   because the truth table is extracted in O*(2^n).  This example feeds a
   two-level PLA cover (the EDA exchange format) through extraction,
   optimises every output with both the classical FS and the simulated
   quantum algorithm, and reports the modeled costs side by side.

   Run with:  dune exec examples/corollary2_pipeline.exe *)

let pla_text =
  {|# a 2-bit multiplier, 4 inputs, 4 outputs (LSB first)
.i 4
.o 4
.ilb a0 a1 b0 b1
.ob p0 p1 p2 p3
1-1- 1000
1001 0100
0110 0100
1011 0100
1110 0100
0111 0110
1101 0110
0101 0010
1111 0001
.e|}

let () =
  let pla = Ovo_boolfun.Pla.of_string pla_text in
  Format.printf "PLA: %d inputs, %d outputs, %d cubes@."
    (Ovo_boolfun.Pla.inputs pla)
    (Ovo_boolfun.Pla.outputs pla)
    (Ovo_boolfun.Pla.num_cubes pla);
  (* sanity: outputs implement a 2-bit multiplier *)
  let tables = Ovo_boolfun.Pla.tables pla in
  let product code =
    let a = code land 3 and b = (code lsr 2) land 3 in
    a * b
  in
  let ok = ref true in
  for code = 0 to 15 do
    let got =
      Array.to_list (Array.mapi (fun j t -> (j, t)) tables)
      |> List.fold_left
           (fun acc (j, t) ->
             if Ovo_boolfun.Truthtable.eval t code then acc lor (1 lsl j)
             else acc)
           0
    in
    if got <> product code then ok := false
  done;
  Format.printf "cover implements 2-bit multiplication: %b@.@." !ok;

  Format.printf "out    FS-size  FS-cells   quantum-size  modeled-q-cells@.";
  Array.iteri
    (fun j tt ->
      let metrics = Ovo_core.Metrics.create () in
      let r = Ovo_core.Fs.run ~metrics tt in
      let fs_cells = metrics.Ovo_core.Metrics.table_cells in
      let ctx = Ovo_quantum.Opt_obdd.make_ctx () in
      let q, qcost =
        Ovo_quantum.Opt_obdd.minimize ~ctx (Ovo_quantum.Opt_obdd.theorem10 ()) tt
      in
      Format.printf "p%d %9d %9d %13d %16.0f@." j r.Ovo_core.Fs.size fs_cells
        q.Ovo_core.Fs.size qcost)
    tables;

  (* and the multi-terminal view: the product as one minimum MTBDD *)
  let mt =
    Ovo_boolfun.Mtable.of_fun 4 ~values:10 product
  in
  let r = Ovo_core.Fs.run_mtable mt in
  Format.printf
    "@.the product as a single minimum MTBDD: %d nodes, ordering (root first) %s@."
    r.Ovo_core.Fs.size
    (String.concat " "
       (List.map string_of_int
          (Array.to_list (Ovo_core.Fs.read_first_order r))));
  let man =
    Ovo_bdd.Mtbdd.create ~order:(Ovo_core.Fs.read_first_order r) 4
  in
  let m = Ovo_bdd.Mtbdd.import man r.Ovo_core.Fs.diagram in
  Format.printf "MTBDD package agrees: eval(3*3) = %d, size %d@."
    (Ovo_bdd.Mtbdd.eval man m 0b1111)
    (Ovo_bdd.Mtbdd.size man m)
