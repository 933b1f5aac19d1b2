(* Multi-output (shared) diagram optimisation: a real circuit exposes
   many outputs over the same inputs, and the right question is the
   ordering that minimises the SHARED diagram, not each output alone.
   This example optimises a 3-bit adder's outputs jointly, compares the
   shared optimum against per-output optima, and cross-checks with the
   BDD package's shared size.

   Run with:  dune exec examples/multi_output.exe *)

module T = Ovo_boolfun.Truthtable
module S = Ovo_core.Shared
module B = Ovo_bdd.Bdd
module Cc = Ovo_bdd.Circuits

let () =
  let bits = 3 in
  let n = 2 * bits in
  (* outputs: sum bits 0..bits-1 and the carry, as truth tables *)
  let outputs =
    Array.init (bits + 1) (fun j ->
        T.of_fun n (fun code ->
            let a = code land ((1 lsl bits) - 1) in
            let b = code lsr bits in
            (a + b) land (1 lsl j) <> 0))
  in
  Printf.printf "3-bit adder: %d outputs over %d inputs\n" (bits + 1) n;

  (* per-output exact optima (each with its own, possibly different order) *)
  let singles = Array.map (fun tt -> Ovo_core.Fs.run tt) outputs in
  Array.iteri
    (fun j r ->
      Printf.printf "  output %d alone: %d nodes (order root-first: %s)\n" j
        r.Ovo_core.Fs.mincost
        (String.concat " "
           (List.map string_of_int
              (Array.to_list (Ovo_core.Fs.read_first_order r)))))
    singles;
  let sum_singles =
    Array.fold_left (fun acc r -> acc + r.Ovo_core.Fs.mincost) 0 singles
  in

  (* the joint optimum over one shared order *)
  let shared = S.minimize outputs in
  Printf.printf "shared exact optimum: %d nodes (vs %d if kept separate)\n"
    shared.S.mincost sum_singles;
  Printf.printf "shared optimal order (root first): %s\n"
    (String.concat " "
       (List.map string_of_int
          (List.rev (Array.to_list shared.S.order))));

  (* the same circuit built by symbolic simulation in the BDD package,
     under the shared-optimal order, must have the same shared size *)
  let rf =
    let o = shared.S.order in
    Array.init n (fun i -> o.(n - 1 - i))
  in
  let man = B.create ~order:rf n in
  let a = Cc.input man (Array.init bits (fun j -> j)) in
  let b = Cc.input man (Array.init bits (fun j -> bits + j)) in
  let sum, carry = Cc.add man a b in
  let pkg_size = B.shared_size man (carry :: Array.to_list sum) in
  Printf.printf "BDD package under that order: %d nodes (incl. terminals)\n"
    pkg_size;
  Printf.printf "optimiser size incl. terminals: %d — agreement: %b\n"
    shared.S.size
    (pkg_size = shared.S.size);

  (* the blocked ordering pays a visible price on the shared diagram *)
  let blocked =
    Ovo_core.Compact.compact_chain
      (Ovo_core.Compact.initial_shared Ovo_core.Compact.Bdd
         (Array.map Ovo_boolfun.Mtable.of_truthtable outputs))
      (Array.init n (fun i -> i))
  in
  Printf.printf "blocked ordering instead: %d nodes (%.1fx the optimum)\n"
    blocked.Ovo_core.Compact.mincost
    (float_of_int blocked.Ovo_core.Compact.mincost /. float_of_int shared.S.mincost)
