(* The serve-mixed workload: an in-process daemon (2 workers, cache on,
   no store) behind a Unix socket, driven by two closed-loop client
   connections through the real client and wire protocol.  Each pass
   sends the structured functions cold, then one group of 25 of the 100
   distinct random n = 10/11 tables cold, then 500 warm re-submissions of
   the group's tables under fresh variable permutations (see [pass]). *)

open Ovo_core
module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families
module Sv = Ovo_serve.Server
module Cl = Ovo_serve.Client
module Pr = Ovo_serve.Protocol
module J = Ovo_obs.Json

let cold_random = 100
let groups = 4
let per_group = cold_random / groups
let warm_per_pass = 500

type kind = Cold_random | Cold_structured | Warm

type request = {
  kind : kind;
  fn : int;  (** index into the function table *)
  sent : T.t;  (** the table as sent: the function, permuted when warm *)
  latency : float;
  stop : float;
  reply : Pr.reply option;
}

(* Twenty distinct structured functions of 10 or 11 variables; none is
   a variable relabelling of another, so every one is a cache miss. *)
let structured () =
  let open Exact in
  let inst name tt = { name; n = T.arity tt; tt; cls = Structured; pin = None } in
  [ hwb 10; hwb 11; achilles 5;
    { (inst "mux-3" (F.multiplexer ~select:3)) with pin = Some mux3_optimum };
    inst "majority-10" (F.majority 10); inst "majority-11" (F.majority 11);
    inst "parity-10" (F.parity 10); inst "parity-11" (F.parity 11);
    inst "interval-10-3-6" (F.weight_interval 10 ~lo:3 ~hi:6);
    inst "interval-11-4-7" (F.weight_interval 11 ~lo:4 ~hi:7) ]
  @ List.map
      (fun (n, k) -> inst (Printf.sprintf "threshold-%d-%d" n k) (F.threshold n ~k))
      [ (10, 3); (10, 4); (11, 3); (11, 4) ]
  @ List.init 6 (fun out ->
        inst (Printf.sprintf "adder-5-%d" out) (F.adder_bit ~bits:5 ~out))

let random_fn seed i =
  let n = if i mod 5 = 4 then 11 else 10 in
  { Exact.name = Printf.sprintf "random-%d#%d" n i; n;
    tt = T.random (Random.State.make [| seed; 7919; i |]) n;
    cls = Exact.Random; pin = None }

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------- daemon life cycle ---------- *)

type daemon = { waiter : Thread.t; conns : Cl.t array }

let ping c =
  match Cl.roundtrip c { Pr.id = 0; op = Pr.Ping } with
  | Ok { Pr.body = Pr.Pong; _ } -> ()
  | _ -> failwith "serve-mixed: ping not answered"

let start ~sock =
  let cfg =
    { (Sv.default_config ~listen:(Pr.Unix_sock sock)) with
      Sv.workers = 2; queue_cap = 64; cache_cap = 100_000 }
  in
  let server = Sv.start cfg in
  let waiter = Thread.create Sv.wait server in
  let conns =
    Array.init 2 (fun _ -> Cl.connect_retry ~retries:20 (Pr.Unix_sock sock))
  in
  Array.iter ping conns;
  { waiter; conns }

let stop d =
  (match Cl.roundtrip d.conns.(0) { Pr.id = 0; op = Pr.Shutdown } with
  | Ok { Pr.body = Pr.Bye; _ } -> ()
  | _ -> failwith "serve-mixed: shutdown not acknowledged");
  Array.iter Cl.close d.conns;
  Thread.join d.waiter

(* ---------- one pass ---------- *)

let solve_request id table =
  { Pr.id;
    op =
      Pr.Solve
        { Pr.table = T.to_string table; kind = Compact.Bdd;
          engine = Engine.Seq; deadline_ms = None } }

let send c kind fn sent =
  let req = solve_request (fn + 1) sent in
  let t0 = Report.now () in
  let reply = Result.to_option (Cl.roundtrip c req) in
  let stop = Report.now () in
  { kind; fn; sent; latency = stop -. t0; stop; reply }

(* Both connections run [f conn client] at once, each in its own thread;
   returns their requests and the step's wall time.  The client threads
   share the daemon's domain, as one process's threads do.  A recording
   run gets one span per step with one child span per request. *)
let step d name f =
  Report.span ~cat:"serve" name (fun () ->
      let parent = Report.current_span () in
      let results = Array.make 2 [] in
      let t0 = Report.now () in
      let threads =
        Array.init 2 (fun conn ->
            Thread.create (fun () -> results.(conn) <- f conn d.conns.(conn)) ())
      in
      Array.iter Thread.join threads;
      let wall = Report.now () -. t0 in
      let reqs = results.(0) @ results.(1) in
      List.iter
        (fun r ->
          Report.closed_span ~cat:"serve" ~parent "request" (r.stop -. r.latency)
            r.stop)
        reqs;
      (reqs, wall))

let float_at path json =
  Option.bind (J.find_path path json) J.to_float_opt
  |> Option.value ~default:0.

let int_at path json =
  Option.bind (J.find_path path json) J.to_int_opt |> Option.value ~default:(-1)

(* One pass against a fresh daemon: the structured cold requests, then
   the cold requests of random group [g], then the warm ones, each step
   with both connections sending in a closed loop.  Warm requests
   re-submit the group's functions under fresh variable permutations;
   keeping them out of the cold steps keeps them from queueing behind DP
   solves for the runtime lock.  Every pass of a group sends the same
   requests; a run cycles through the groups, so that it holds several
   passes and solves every random function cold.  Returns the requests,
   the wall times of the structured and random steps and of the pass,
   and the daemon's telemetry. *)
let pass ~sock ~fns ~seed g =
  let d = start ~sock in
  let mine conn lo hi =
    List.init (hi - lo) (( + ) lo) |> List.filter (fun i -> i mod 2 = conn)
  in
  let cold kind lo hi conn c =
    List.map (fun fn -> send c kind fn fns.(fn).Exact.tt) (mine conn lo hi)
  in
  let s_reqs, s_wall =
    step d "structured cold" (cold Cold_structured cold_random (Array.length fns))
  in
  let r_reqs, r_wall =
    step d "random cold" (cold Cold_random (g * per_group) ((g + 1) * per_group))
  in
  let w_reqs, w_wall =
    step d "warm" (fun conn c ->
        let rng = Random.State.make [| seed; 31; conn; g |] in
        List.init (warm_per_pass / 2) (fun _ ->
            let fn = (g * per_group) + Random.State.int rng per_group in
            let tt = fns.(fn).Exact.tt in
            send c Warm fn (T.permute_vars tt (permutation rng (T.arity tt)))))
  in
  let telemetry =
    match Cl.roundtrip d.conns.(0) { Pr.id = 0; op = Pr.Metrics Pr.Mjson } with
    | Ok { Pr.body = Pr.Ok_metrics j; _ } -> j
    | _ -> failwith "serve-mixed: metrics not answered"
  in
  stop d;
  (s_reqs @ r_reqs @ w_reqs, s_wall, r_wall, s_wall +. r_wall +. w_wall,
   telemetry)

(* ---------- verification ---------- *)

(* Direct solves of every function's canonical table (the one the
   daemon solves), split over two domains. *)
let references fns =
  let canon =
    Array.map (fun f -> { f with Exact.tt = fst (T.canonicalize f.Exact.tt) }) fns
  in
  let half = Array.length fns / 2 in
  let solve lo hi =
    Array.init (hi - lo) (fun i -> Exact.solve_reference canon.(lo + i))
  in
  let other = Domain.spawn (fun () -> solve half (Array.length fns)) in
  let mine = solve 0 half in
  let refs = Array.append mine (Domain.join other) in
  Array.mapi (fun i r -> (canon.(i).tt, Exact.check_reference canon.(i) r)) refs

(* The reply the daemon owes for [sent], from the direct solve [r] of its
   canonical table [canon]: r relabelled through the permutation that
   canonicalises [sent], root-first as Protocol carries it.  None when
   [sent] does not canonicalise to [canon]. *)
let expected (canon, (r : Exact.answer)) sent =
  let c, perm = T.canonicalize sent in
  if not (T.equal c canon) then None
  else
    let m = Array.length r.order in
    Some
      { r with
        Exact.order = Array.init m (fun j -> perm.(r.order.(m - 1 - j)));
        widths = Array.init m (fun j -> r.widths.(m - 1 - j)) }

let verify fns refs reqs =
  List.iter
    (fun r ->
      let label =
        Printf.sprintf "%s %s" fns.(r.fn).Exact.name
          (match r.kind with Warm -> "warm" | _ -> "cold")
      in
      match r.reply with
      | Some { Pr.body = Pr.Ok_solve s; _ } ->
          let got =
            { Exact.mincost = s.Pr.mincost; size = s.Pr.size; order = s.Pr.order;
              widths = s.Pr.widths; cells = None }
          in
          Report.verify label
            [ ("cached exactly when warm", s.Pr.cached = (r.kind = Warm));
              ( "equals the direct solve",
                match expected refs.(r.fn) r.sent with
                | Some e -> Exact.same got e
                | None -> false );
              ( "order achieves size",
                Eval_order.size r.sent (Eval_order.read_first s.Pr.order)
                = s.Pr.size ) ]
      | Some _ | None -> Report.verify label [ ("answered", false) ])
    reqs

(* ---------- the run ---------- *)

let time_median reps f =
  Report.median
    (List.map
       (fun x ->
         let t0 = Report.now () in
         f x;
         Report.now () -. t0)
       reps)

(* Per-layer series of one traced pass. *)
let add_layer_series reqs tel =
  (* the digest cache must have hit exactly on the warm requests *)
  let warm = List.length (List.filter (fun r -> r.kind = Warm) reqs) in
  let hits = int_at [ "cache"; "hits" ] tel
  and misses = int_at [ "cache"; "misses" ] tel in
  Report.require "cache"
    [ ("hits equal the warm requests", hits = warm);
      ("misses equal the cold requests", misses = List.length reqs - warm) ];
  Report.add "serve.cache_hit_ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  Report.add "serve.queue_wait_p50_ms"
    (float_at [ "latency_ms"; "queue_wait"; "p50_ms" ] tel);
  Report.add "serve.solve_p50_ms"
    (float_at [ "latency_ms"; "solve"; "p50_ms" ] tel);
  List.iter
    (fun r ->
      let ms = r.latency *. 1000. in
      match (r.kind, r.reply) with
      | Warm, _ -> Report.add "serve.warm_ms" ms
      | _, Some { Pr.body = Pr.Ok_solve s; _ } ->
          Report.add "serve.cold_ms" ms;
          Report.add "serve.overhead_ms" (ms -. s.Pr.solve_ms)
      | _, _ -> Report.add "serve.cold_ms" ms)
    reqs;
  (* two parts of every request's path, timed on the same requests after
     the pass: the daemon's canonicalisation and the wire codec *)
  Report.add "serve.canon_ms"
    (1000. *. time_median reqs (fun r -> ignore (T.canonicalize r.sent)));
  Report.add "serve.codec_us"
    (1e6
    *. time_median reqs (fun r ->
           let line = Pr.request_to_line (solve_request 1 r.sent) in
           ignore (Pr.request_of_line line);
           match r.reply with
           | Some rep -> ignore (Pr.reply_of_line (Pr.reply_to_line rep))
           | None -> ()))

let functions seed =
  Array.append
    (Array.init cold_random (random_fn seed))
    (Array.of_list (structured ()))

let socket scratch = Filename.concat scratch "s.sock"

(* What a pass needs before its first request: the tables, a started
   daemon and two connections that have been answered once.  Returns
   what stops the daemon. *)
let setup ~seed ~scratch =
  ignore (functions seed);
  let d = start ~sock:(socket scratch) in
  fun () -> stop d

let run ~seed ~seconds ~scratch ~trace =
  let sock = socket scratch and fns = functions seed in
  Report.set "dp.state_bytes" (float_of_int (Exact.state_bytes 11));
  Report.set "engine.speedup_vs_seq" 1.;
  let answered = ref [] in
  Report.repeat ~seconds
    (Array.concat
       (List.init groups (fun g ->
            if trace then [| `Plain g; `Traced g |] else [| `Plain g |])))
    (fun kind ->
      match kind with
      | `Plain g ->
          let reqs, s_wall, r_wall, wall, _ = pass ~sock ~fns ~seed g in
          answered := reqs @ !answered;
          Report.add "plain_s" wall;
          Report.add "structured_s" s_wall;
          Report.add "random_s" r_wall;
          Report.add "ops_per_s" (float_of_int (List.length reqs) /. wall)
      | `Traced g ->
          Report.recording := true;
          let g0 = Gc.quick_stat () in
          let reqs, _, _, wall, tel =
            Report.span ~cat:"serve" "pass" (fun () -> pass ~sock ~fns ~seed g)
          in
          let minor, major, alloc = Report.gc_delta g0 (Gc.quick_stat ()) in
          Report.recording := false;
          answered := reqs @ !answered;
          Report.add "traced_s" wall;
          Report.add "gc.minor_collections" minor;
          Report.add "gc.major_collections" major;
          Report.add "gc.alloc_mb" alloc;
          add_layer_series reqs tel);
  Report.mark_peak ();
  if trace then
    Report.set "trace.overhead_ratio"
      (Report.series_median "traced_s" /. Report.series_median "plain_s");
  verify fns (references fns) !answered
