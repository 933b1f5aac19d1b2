type sink = {
  spill : k:int -> ext:int -> string -> unit;
  reload : k:int -> ext:int -> string;
}

let default_extent_bytes = 1024 * 1024

type t = {
  budget_bytes : int option;
  extent_bytes : int;
  sink : sink option;
  mutable resident_bytes : int;
  mutable peak_resident_bytes : int;
  mutable peak_layer_bytes : int;
  mutable layers_spilled : int;
  mutable extents_spilled : int;
  mutable bytes_spilled : int;
  mutable raw_bytes_spilled : int;
  mutable reloads : int;
  mutable bytes_reloaded : int;
}

let create ?budget_bytes ?(extent_bytes = default_extent_bytes) ?sink () =
  (match budget_bytes with
  | Some b when b <= 0 -> invalid_arg "Membudget.create: budget must be > 0"
  | Some _ when sink = None ->
      invalid_arg "Membudget.create: a budget needs a spill sink"
  | _ -> ());
  if extent_bytes <= 0 then
    invalid_arg "Membudget.create: extent size must be > 0";
  {
    budget_bytes;
    extent_bytes;
    sink;
    resident_bytes = 0;
    peak_resident_bytes = 0;
    peak_layer_bytes = 0;
    layers_spilled = 0;
    extents_spilled = 0;
    bytes_spilled = 0;
    raw_bytes_spilled = 0;
    reloads = 0;
    bytes_reloaded = 0;
  }

let unbounded () = create ()
let budget t = t.budget_bytes
let extent_bytes t = t.extent_bytes
let sink t = t.sink
let resident_bytes t = t.resident_bytes
let peak_resident_bytes t = t.peak_resident_bytes
let peak_layer_bytes t = t.peak_layer_bytes
let layers_spilled t = t.layers_spilled
let extents_spilled t = t.extents_spilled
let bytes_spilled t = t.bytes_spilled
let raw_bytes_spilled t = t.raw_bytes_spilled
let reloads t = t.reloads
let bytes_reloaded t = t.bytes_reloaded

let compression_ratio t =
  if t.bytes_spilled = 0 then 1.0
  else float_of_int t.raw_bytes_spilled /. float_of_int t.bytes_spilled

let over_budget t =
  match t.budget_bytes with None -> false | Some b -> t.resident_bytes > b

let grew t bytes =
  t.resident_bytes <- t.resident_bytes + bytes;
  if t.resident_bytes > t.peak_resident_bytes then
    t.peak_resident_bytes <- t.resident_bytes

let shrank t bytes = t.resident_bytes <- max 0 (t.resident_bytes - bytes)

let note_layer_bytes t bytes =
  if bytes > t.peak_layer_bytes then t.peak_layer_bytes <- bytes

let note_layer_spill t = t.layers_spilled <- t.layers_spilled + 1

let note_spill t ~raw ~stored =
  t.extents_spilled <- t.extents_spilled + 1;
  t.raw_bytes_spilled <- t.raw_bytes_spilled + raw;
  t.bytes_spilled <- t.bytes_spilled + stored

let note_reload t bytes =
  t.reloads <- t.reloads + 1;
  t.bytes_reloaded <- t.bytes_reloaded + bytes

(* Accepts "4096", "64k", "16M", "2G" (binary multiples).  Kept liberal
   on case, strict on everything else, so a typo fails loudly instead of
   silently meaning bytes. *)
let parse_bytes s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then Error "empty size"
  else
    let unit_of c =
      match Char.lowercase_ascii c with
      | 'k' -> Some 1024
      | 'm' -> Some (1024 * 1024)
      | 'g' -> Some (1024 * 1024 * 1024)
      | _ -> None
    in
    let digits, mult =
      match unit_of s.[len - 1] with
      | Some m -> (String.sub s 0 (len - 1), m)
      | None -> (s, 1)
    in
    match int_of_string_opt digits with
    | None -> Error (Printf.sprintf "bad size %S (want BYTES[k|M|G])" s)
    | Some n when n <= 0 -> Error "size must be > 0"
    | Some n -> Ok (n * mult)

let to_args t =
  Ovo_obs.Json.
    [
      ( "budget_bytes",
        match t.budget_bytes with Some b -> Int b | None -> Null );
      ("extent_bytes", Int t.extent_bytes);
      ("peak_resident_bytes", Int t.peak_resident_bytes);
      ("peak_layer_bytes", Int t.peak_layer_bytes);
      ("layers_spilled", Int t.layers_spilled);
      ("extents_spilled", Int t.extents_spilled);
      ("bytes_spilled", Int t.bytes_spilled);
      ("raw_bytes_spilled", Int t.raw_bytes_spilled);
      ("reloads", Int t.reloads);
      ("bytes_reloaded", Int t.bytes_reloaded);
    ]

let to_json_value t = Ovo_obs.Json.Obj (to_args t)
let to_json t = Ovo_obs.Json.to_string (to_json_value t)

let pp ppf t =
  Format.fprintf ppf
    "budget=%s peak_resident=%d peak_layer=%d spilled=%d layers/%d extents \
     (%d B, %d raw) reloads=%d"
    (match t.budget_bytes with Some b -> string_of_int b | None -> "none")
    t.peak_resident_bytes t.peak_layer_bytes t.layers_spilled t.extents_spilled
    t.bytes_spilled t.raw_bytes_spilled t.reloads
