type kind = Bdd | Zdd

type node = { var : int; lo : int; hi : int }

type state = {
  n : int;
  kind : kind;
  num_terminals : int;
  assigned : Varset.t;
  order_rev : int list;
  tables : int array array;
  origin : int array array;
  mincost : int;
  next_id : int;
}

let initial_shared kind mts =
  if Array.length mts = 0 then
    invalid_arg "Compact.initial_shared: need at least one root";
  let n = Ovo_boolfun.Mtable.arity mts.(0) in
  let num_terminals = Ovo_boolfun.Mtable.num_values mts.(0) in
  Array.iter
    (fun mt ->
      if Ovo_boolfun.Mtable.arity mt <> n then
        invalid_arg "Compact.initial_shared: arity mismatch";
      if Ovo_boolfun.Mtable.num_values mt <> num_terminals then
        invalid_arg "Compact.initial_shared: value alphabet mismatch")
    mts;
  let origin =
    Array.map (fun mt -> Array.init (1 lsl n) (Ovo_boolfun.Mtable.eval mt)) mts
  in
  {
    n;
    kind;
    num_terminals;
    assigned = Varset.empty;
    order_rev = [];
    tables = origin;
    origin;
    mincost = 0;
    next_id = num_terminals;
  }

let initial kind mt = initial_shared kind [| mt |]

let of_truthtable kind tt =
  initial kind (Ovo_boolfun.Mtable.of_truthtable tt)

let free st = Varset.diff (Varset.full st.n) st.assigned

let check_var name st i =
  if i < 0 || i >= st.n then
    invalid_arg (Printf.sprintf "Compact.%s: variable out of range" name);
  if Varset.mem i st.assigned then
    invalid_arg (Printf.sprintf "Compact.%s: variable already assigned" name)

(* Cells one compaction of [st] scans: half of every root's table. *)
let cells st = Array.length st.tables.(0) / 2 * Array.length st.tables

(* The dedup set of one scan: open addressing over packed [(lo, hi)]
   keys, emptied in O(1) by bumping the generation stamp.  Each domain
   keeps one and lends it to one scan at a time, so Engine.Par workers
   never share it; a systhread that finds it lent out (a server worker
   preempted mid-scan) takes a fresh one.  A scan uses a power-of-two
   prefix of at least twice its cell count, so small scans stay
   cache-resident after a large one. *)
type dedup = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable gen : int;
}

let dedup_pool = Domain.DLS.new_key (fun () -> Atomic.make None)

let borrow_dedup cells =
  let d =
    match Atomic.exchange (Domain.DLS.get dedup_pool) None with
    | Some d -> d
    | None -> { keys = [||]; vals = [||]; stamps = [||]; gen = 0 }
  in
  let cap = ref 16 in
  while !cap < 2 * cells do
    cap := 2 * !cap
  done;
  if Array.length d.keys < !cap then begin
    d.keys <- Array.make !cap 0;
    d.vals <- Array.make !cap 0;
    d.stamps <- Array.make !cap 0;
    d.gen <- 0
  end;
  d.gen <- d.gen + 1;
  (d, !cap - 1)

let return_dedup d = Atomic.set (Domain.DLS.get dedup_pool) (Some d)

(* The one compaction scan, w.r.t. variable [i], over every root's
   table.  For each assignment [b] to the remaining free variables it
   fetches the two cofactor nodes and applies the reduction rule of
   [st.kind]; an unelided pair gets the id of its first occurrence in
   this scan, and ids are handed out in scan order from [st.next_id].
   Only pairs of this scan need deduplicating: every earlier node is
   labelled by an assigned variable while [i] is still free, so the
   node key [(i, lo, hi)] is fresh by construction.

   [out] receives the new tables (pass [[||]] to only count) and
   [fresh lo hi] is called once per new node, in id order.  Returns the
   number of new nodes — the paper's [Cost_i]. *)
let scan st i ~out ~fresh =
  let p = Varset.rank_in i (free st) in
  let new_len = Array.length st.tables.(0) / 2 and cells = cells st in
  (* keys pack [lo] above 31 bits of [hi]; ids never get near 2^31 *)
  assert (st.next_id + cells < 1 lsl 31);
  let d, mask = borrow_dedup cells in
  let gen = d.gen and keys = d.keys and vals = d.vals and stamps = d.stamps in
  let zdd = st.kind = Zdd and write = Array.length out > 0 in
  let low_mask = (1 lsl p) - 1 and bit = 1 lsl p in
  let width = ref 0 in
  Array.iteri
    (fun r table ->
      let dst = if write then out.(r) else table in
      for b = 0 to new_len - 1 do
        let idx0 = ((b lsr p) lsl (p + 1)) lor (b land low_mask) in
        let lo = table.(idx0) and hi = table.(idx0 lor bit) in
        let u =
          if (if zdd then hi = 0 else lo = hi) then lo
          else begin
            let key = (lo lsl 31) lor hi in
            let h = ref (((key * 0x2545F4914F6CDD1D) lsr 20) land mask) in
            while stamps.(!h) = gen && keys.(!h) <> key do
              h := (!h + 1) land mask
            done;
            if stamps.(!h) = gen then st.next_id + vals.(!h)
            else begin
              stamps.(!h) <- gen;
              keys.(!h) <- key;
              vals.(!h) <- !width;
              fresh lo hi;
              incr width;
              st.next_id + !width - 1
            end
          end
        in
        if write then dst.(b) <- u
      done)
    st.tables;
  return_dedup d;
  !width

let no_record _ _ = ()

let step ?(fresh = no_record) st i =
  let new_len = Array.length st.tables.(0) / 2 in
  let tables = Array.map (fun _ -> Array.make new_len 0) st.tables in
  let width = scan st i ~out:tables ~fresh in
  ( {
      st with
      assigned = Varset.add i st.assigned;
      order_rev = i :: st.order_rev;
      tables;
      mincost = st.mincost + width;
      next_id = st.next_id + width;
    },
    width )

let compact ?(metrics = Metrics.create ()) st i =
  check_var "compact" st i;
  let st', width = step st i in
  Metrics.add_cells metrics (cells st);
  Metrics.add_compaction metrics;
  Metrics.add_nodes metrics width;
  st'

let materialise ?(metrics = Metrics.create ()) st i =
  check_var "materialise" st i;
  let st', width = step st i in
  Metrics.add_state metrics;
  Metrics.add_nodes metrics width;
  st'

let width_if_compacted ?(metrics = Metrics.create ()) st i =
  check_var "width_if_compacted" st i;
  let width = scan st i ~out:[||] ~fresh:no_record in
  Metrics.add_cells metrics (cells st);
  Metrics.add_probe metrics;
  width

let mincost_if_compacted ?metrics st i =
  st.mincost + width_if_compacted ?metrics st i

let compact_chain st vars =
  let metrics = Metrics.create () in
  Array.fold_left (fun st i -> compact ~metrics st i) st vars

let width_of_last ~before ~after = after.mincost - before.mincost

let order st = List.rev st.order_rev

let is_complete st = st.assigned = Varset.full st.n

(* Replay the achieved suborder over FS(∅), recording each new node:
   the scan is a deterministic function of the placement sequence, so
   the replay hands out exactly the ids the state's own tables hold. *)
let nodes st =
  let out =
    Array.make (st.next_id - st.num_terminals) { var = -1; lo = 0; hi = 0 }
  in
  let k = ref 0 in
  let origin =
    {
      st with
      assigned = Varset.empty;
      order_rev = [];
      tables = st.origin;
      mincost = 0;
      next_id = st.num_terminals;
    }
  in
  ignore
    (List.fold_left
       (fun cur var ->
         fst
           (step cur var ~fresh:(fun lo hi ->
                out.(!k) <- { var; lo; hi };
                incr k)))
       origin (order st));
  out

let root st =
  if not (is_complete st) then invalid_arg "Compact.root: state not complete";
  if Array.length st.tables <> 1 then
    invalid_arg "Compact.root: state has several roots";
  st.tables.(0).(0)
