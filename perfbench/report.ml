(* What one benchmark process reports: sample series, scalars, verified
   operations, and the spans recorded around calls into the program.
   run.py turns the series into metrics; this side only measures. *)

let now = Unix.gettimeofday

(* ---------- series and scalars ---------- *)

let series : (string, float list ref) Hashtbl.t = Hashtbl.create 64
let scalars : (string, float) Hashtbl.t = Hashtbl.create 16

let add name v =
  match Hashtbl.find_opt series name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace series name (ref [ v ])

let set name v = Hashtbl.replace scalars name v

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let series_median name =
  match Hashtbl.find_opt series name with Some l -> median !l | None -> 0.

(* The workload's set-up, when the run times it: [setup ()] sets the
   workload up and returns what undoes it. *)
let setup : (unit -> unit -> unit) option ref = ref None

(* One round of set-up samples: set-up is repeated, and undone untimed
   after each time, until 10 ms of it have been timed; the round adds
   the median repetition to "setup_s".  A round runs before every pass,
   so the samples spread over the whole run. *)
let sample_setup () =
  Option.iter
    (fun setup ->
      let timed = ref 0. and round = ref [] in
      while !timed < 0.01 do
        let t = now () in
        let undo = setup () in
        let dt = now () -. t in
        undo ();
        round := dt :: !round;
        timed := !timed +. dt
      done;
      add "setup_s" (median !round))
    !setup

(* Run [warmup] once, then [f kind] for passes i = 0, 1, ..., with kind
   [kinds.(i mod |kinds|)], until the next pass is not expected to end within
   [seconds] of the first; every kind runs at least once.  Before each
   pass a round of set-up samples runs on a compacted heap, and the pass
   starts from one, so that neither pays for the garbage of what ran
   before it. *)
let repeat ~seconds ?(warmup = ignore) kinds f =
  warmup ();
  let t0 = now () and durations = ref [] and i = ref 0 in
  while
    !i < Array.length kinds || now () -. t0 +. median !durations <= seconds
  do
    Gc.compact ();
    sample_setup ();
    Gc.compact ();
    let t = now () in
    f kinds.(!i mod Array.length kinds);
    durations := (now () -. t) :: !durations;
    incr i
  done

(* Minor and major collections and megabytes allocated between two
   Gc.quick_stat readings. *)
let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  ( float_of_int (b.minor_collections - a.minor_collections),
    float_of_int (b.major_collections - a.major_collections),
    (words b -. words a) *. float_of_int (Sys.word_size / 8) /. 1e6 )

(* Unpruned solves whose table-cell count matched Theorem 5. *)
let theorem5_solves = ref 0

(* ---------- verified operations ---------- *)

let attempted = ref 0
let failed = ref 0
let errors = ref []

let failure label what =
  incr failed;
  if List.length !errors < 20 then
    errors := Printf.sprintf "%s: %s" label what :: !errors

(* One answer the program returned: counted as attempted, and as failed
   when any of its checks is false. *)
let verify label checks =
  incr attempted;
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> ()
  | bad -> failure label (String.concat ", " (List.map fst bad))

(* A check that is not tied to one answer (a reference solve, a counter
   cross-check): each false one counts as a failure. *)
let require label checks =
  List.iter (fun (what, ok) -> if not ok then failure label what) checks

(* ---------- spans ---------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  start : float;
  stop : float;
}

let recording = ref false
let spans = ref []
let next_id = ref 0
let current = ref 0

(* Record [f] as a span below the current one.  Spans are recorded by
   the main thread only; worker domains report through counters, and
   client threads' requests are recorded after they join. *)
let span ?(cat = "bench") name f =
  if not !recording then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        spans := { id; parent; name; cat; start; stop = now () } :: !spans)
      f
  end

(* A span whose interval was measured elsewhere: a DP layer bounded by
   two [on_layer] timestamps, or a request timed by a client thread. *)
let closed_span ?(cat = "bench") ~parent name start stop =
  if !recording then begin
    incr next_id;
    spans := { id = !next_id; parent; name; cat; start; stop } :: !spans
  end

let current_span () = !current

(* ---------- output ---------- *)

module J = Ovo_obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_trace path =
  let event s =
    J.Obj
      [ ("name", J.String s.name); ("cat", J.String s.cat);
        ("ph", J.String "X"); ("pid", J.Int 1); ("tid", J.Int 1);
        ("ts", J.Float (s.start *. 1e6));
        ("dur", J.Float ((s.stop -. s.start) *. 1e6));
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string (J.Obj [ ("traceEvents", J.List (List.rev_map event !spans)) ])))

(* The process status (its VmHWM line gives peak RSS), taken when the
   measured work is over and before any reference solve runs. *)
let status = ref ""
let mark_peak () = status := read_file "/proc/self/status"

(* The one line run.py parses. *)
let emit () =
  let sorted tbl f =
    Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let floats l = J.List (List.rev_map (fun v -> J.Float v) !l) in
  print_endline
    (J.to_string
       (J.Obj
          [ ("attempted", J.Int !attempted); ("failed", J.Int !failed);
            ("errors", J.List (List.rev_map (fun e -> J.String e) !errors));
            ("series", J.Obj (sorted series floats));
            ("scalars", J.Obj (sorted scalars (fun v -> J.Float v)));
            ("proc_status", J.String !status) ]))
