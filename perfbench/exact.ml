(* The exact workload.  A pass solves every instance once in each mode:
   Seq in-core, Par with two domains in-core, and Seq pruned and
   budgeted (out of core); passes repeat until the measuring time is
   spent.  An untraced pass calls only Fs.run (with Seed.bound,
   Membudget.create and Spill.sink out of core).  A traced pass is
   supplied by the caller (Traced.pass, linked only into ovotrace.exe),
   so that this module and ovobench.exe depend on no layer below
   Fs.run. *)

open Ovo_core
module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families

type mode = Seq | Par2 | Oocore
type cls = Random | Structured

type inst = {
  name : string;
  n : int;
  tt : T.t;
  cls : cls;
  pin : int option;  (** known optimum (non-terminal nodes) *)
}

(* Optima of HWB_n, taken from the exact solver at the commit that
   introduced this benchmark; achilles-p's optimum is 2p (paper, Fig. 1)
   and mux-3's is 7 address + 8 data nodes. *)
let hwb_optimum = [ (10, 80); (11, 107); (12, 137); (13, 176) ]
let mux3_optimum = 15

let random_inst seed n i =
  { name = Printf.sprintf "random-%d#%d" n i; n;
    tt = T.random (Random.State.make [| seed; n; i |]) n; cls = Random;
    pin = None }

let hwb n =
  { name = Printf.sprintf "hwb-%d" n; n; tt = F.hidden_weighted_bit n;
    cls = Structured; pin = List.assoc_opt n hwb_optimum }

let achilles p =
  { name = Printf.sprintf "achilles-%d" p; n = 2 * p; tt = F.achilles p;
    cls = Structured; pin = Some (2 * p) }

(* Every mode solves the same three instances.  They have equal n, so
   they scan the same n·3^(n-1) cells, but they create very different
   numbers of nodes. *)
let instances seed = [ random_inst seed 12 0; hwb 12; achilles 6 ]

(* A pass solves every instance in each mode in turn. *)
let modes = [| Seq; Par2; Oocore |]

let mode_name = function Seq -> "seq" | Par2 -> "par2" | Oocore -> "oocore"

let engine = function
  | Par2 -> Engine.Par { domains = 2 }
  | Seq | Oocore -> Engine.Seq

let binomial n k =
  let r = ref 1 in
  for i = 1 to k do
    r := !r * (n - k + i) / i
  done;
  !r

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* Theorem 5: an unpruned sweep scans n·3^(n-1) table cells. *)
let theorem5_cells n = n * pow 3 (n - 1)

(* Out-of-core settings: a budget of a quarter of the dense size of the
   widest layer (C(n, n/2) entries of 9 bytes), and 4 KiB extents, so
   that the k = n/2 hump itself leaves memory piecewise. *)
let budget_bytes n = binomial n (n / 2) * 9 / 4
let extent_bytes = 4096

(* The closed form of two adjacent layers of DP tables: C(n,k) states
   of 2^(n-k) int cells next to the C(n,k-1) states they came from. *)
let state_bytes n =
  let best = ref 0 in
  for k = 1 to n do
    let cells =
      (binomial n k * pow 2 (n - k)) + (binomial n (k - 1) * pow 2 (n - k + 1))
    in
    best := max !best cells
  done;
  !best * 8

type answer = {
  mincost : int;
  size : int;
  order : int array;
  widths : int array;
  cells : int option;  (** table cells scanned, for unpruned solves *)
}

let answer_of (r : Fs.result) cells =
  { mincost = r.Fs.mincost; size = r.Fs.size; order = r.Fs.order;
    widths = r.Fs.widths; cells }

let spill_dir scratch = Filename.concat scratch "spill"

(* ---------- the untraced solve: user-facing entry points only ---------- *)

let plain mode ~scratch inst =
  match mode with
  | Seq | Par2 ->
      let metrics = Metrics.create () in
      let r = Fs.run ~engine:(engine mode) ~metrics inst.tt in
      answer_of r (Some metrics.Metrics.table_cells)
  | Oocore ->
      let prune = Ovo_ordering.Seed.bound inst.tt in
      let sp = Ovo_store.Spill.create (spill_dir scratch) in
      let membudget =
        Membudget.create ~budget_bytes:(budget_bytes inst.n) ~extent_bytes
          ~sink:(Ovo_store.Spill.sink sp) ()
      in
      Fun.protect
        ~finally:(fun () -> Ovo_store.Spill.remove sp)
        (fun () -> answer_of (Fs.run ~prune ~membudget inst.tt) None)

(* ---------- verification ---------- *)

let same a b =
  a.mincost = b.mincost && a.size = b.size && a.order = b.order
  && a.widths = b.widths

(* The reference answer for an instance: a Seq, unpruned, in-core solve,
   checked against the function itself and the pinned optimum.  Solving
   is domain-safe; checking records failures, so it runs on the main
   domain. *)
let solve_reference inst =
  let metrics = Metrics.create () in
  let r = Fs.run ~metrics inst.tt in
  (r, metrics.Metrics.table_cells)

let check_reference inst ((r : Fs.result), cells) =
  Report.require ("reference " ^ inst.name)
    [ ("diagram computes the function", Diagram.check_tt r.Fs.diagram inst.tt);
      ("order achieves size", Eval_order.size inst.tt r.Fs.order = r.Fs.size);
      ( Printf.sprintf "pinned optimum (got %d)" r.Fs.mincost,
        match inst.pin with None -> true | Some p -> p = r.Fs.mincost );
      ("theorem 5 cells", cells = theorem5_cells inst.n) ];
  if cells = theorem5_cells inst.n then incr Report.theorem5_solves;
  answer_of r (Some cells)

(* ---------- the run ---------- *)

type kind =
  | Plain
  | Traced of (mode -> scratch:string -> inst array -> answer array)

let run ~seed ~seconds ~traced ~scratch =
  let insts = Array.of_list (instances seed) in
  Report.set "dp.state_bytes"
    (float_of_int (Array.fold_left (fun a i -> max a (state_bytes i.n)) 0 insts));
  let answers = Array.make (Array.length insts) [] in
  let kinds =
    match traced with None -> [| Plain |] | Some pass -> [| Plain; Traced pass |]
  in
  (* An untraced pass: the instances on each mode in turn.  [record]
     keeps its answers and end-to-end samples; the warm-up pass does
     not. *)
  let plain_pass ~record =
    let t_pass = Report.now () and random = ref 0. and structured = ref 0. in
    Array.iter
      (fun m ->
        let t_mode = Report.now () in
        Array.iteri
          (fun i inst ->
            let t0 = Report.now () in
            let a = plain m ~scratch inst in
            let dt = Report.now () -. t0 in
            if record then begin
              answers.(i) <- a :: answers.(i);
              let total =
                match inst.cls with Random -> random | Structured -> structured
              in
              total := !total +. dt
            end)
          insts;
        if record then Report.add (mode_name m ^ "_s") (Report.now () -. t_mode))
      modes;
    let dt = Report.now () -. t_pass in
    if record then begin
      Report.add "random_s" !random;
      Report.add "structured_s" !structured;
      Report.add "plain_s" dt;
      Report.add "ops_per_s"
        (float_of_int (Array.length modes * Array.length insts) /. dt)
    end
  in
  (* the first pass grows the heap; it is run once, untimed *)
  let warmup () = plain_pass ~record:false in
  Report.repeat ~seconds ~warmup kinds (function
    | Plain -> plain_pass ~record:true
    | Traced pass ->
        let t_pass = Report.now () in
        Report.recording := true;
        Array.iter
          (fun m ->
            let a = pass m ~scratch insts in
            Array.iteri (fun i a -> answers.(i) <- a :: answers.(i)) a)
          modes;
        Report.recording := false;
        Report.add "traced_s" (Report.now () -. t_pass));
  Report.mark_peak ();
  if Option.is_some traced then begin
    let m = Report.series_median in
    Report.set "trace.overhead_ratio" (m "traced_s" /. m "plain_s");
    Report.set "engine.speedup_vs_seq" (m "seq_s" /. m "par2_s")
  end;
  (* every answer, traced or not, must equal the Seq reference bit for
     bit; unpruned ones must also have scanned n·3^(n-1) cells *)
  Array.iteri
    (fun i inst ->
      let r = check_reference inst (solve_reference inst) in
      List.iter
        (fun a ->
          let cells_ok =
            match a.cells with
            | None -> true
            | Some c ->
                let ok = c = theorem5_cells inst.n in
                if ok then incr Report.theorem5_solves;
                ok
          in
          Report.verify inst.name
            [ ("equals the Seq reference", same a r);
              ("theorem 5 cells", cells_ok) ])
        answers.(i))
    insts
