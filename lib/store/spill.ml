let log_src = Logs.Src.create "ovo.store.spill" ~doc:"DP extent spill segments"

module Log = (val Logs.src_log log_src : Logs.LOG)

let rtype_extent = 1

type t = {
  dir : string;
  fsync : Rlog.fsync;
  mutable written : (int * int) list;  (* (k, ext) with a segment on disk *)
}

let segment_path t ~k ~ext =
  Filename.concat t.dir (Printf.sprintf "layer-%02d-%03d.seg" k ext)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(fsync = Rlog.Never) dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "Spill.create: %s is not a directory" dir);
  { dir; fsync; written = [] }

let dir t = t.dir

let spill t ~k ~ext payload =
  let path = segment_path t ~k ~ext in
  Rlog.write_atomic ~fsync:t.fsync path [ (rtype_extent, payload) ];
  if not (List.mem (k, ext) t.written) then t.written <- (k, ext) :: t.written;
  Log.debug (fun m ->
      m "spilled layer %d extent %d (%d bytes)" k ext (String.length payload))

let reload t ~k ~ext =
  let path = segment_path t ~k ~ext in
  match Rlog.read path with
  | Ok ([ { Rlog.rtype; payload } ], { Rlog.rec_discarded_bytes = 0; _ })
    when rtype = rtype_extent ->
      payload
  | Ok _ ->
      failwith (Printf.sprintf "Spill.reload: %s is corrupt or truncated" path)
  | Error msg -> failwith (Printf.sprintf "Spill.reload: %s: %s" path msg)

let sink t = { Ovo_core.Membudget.spill = spill t; reload = reload t }

let remove t =
  List.iter
    (fun (k, ext) ->
      try Sys.remove (segment_path t ~k ~ext) with Sys_error _ -> ())
    t.written;
  t.written <- [];
  (* only reap the directory when nothing else lives in it *)
  try Unix.rmdir t.dir with Unix.Unix_error (_, _, _) -> ()
