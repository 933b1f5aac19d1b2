let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let r = ref 1 in
    for i = 1 to k do
      r := !r * (n - k + i) / i
    done;
    !r
  end

(* A rank range [lo, lo+len) of one cardinality layer of the DP,
   bit-packed: entry [r - lo] of [data] holds the (cost, choice) of the
   k-subset whose combinatorial (colex) rank within [j_set] is [r].
   8-byte LE cost + 1-byte choice — a fixed 9 bytes per subset where the
   hashtable pair cost ~10x that in boxed words.  A whole layer is the
   extent [0, C(m,k)).

   A branch-and-bound sweep leaves pruned subsets unset (sign bit set);
   the in-memory layout stays dense (rank arithmetic is the whole point)
   but [encode] switches to a delta+varint compressed stream of the set
   entries whenever that is smaller, so both pruning and cost locality
   shrink spill volume. *)

let entry_bytes = 9
let packed_version = 3
let raw_version = 4
let extent_header_bytes = 30

(* --- combinatorial number system helpers ------------------------------ *)

let pascal_table ~m ~k =
  let t = Array.make_matrix (m + 1) (k + 1) 0 in
  for p = 0 to m do
    t.(p).(0) <- 1;
    for i = 1 to min p k do
      t.(p).(i) <- t.(p - 1).(i - 1) + t.(p - 1).(i)
    done
  done;
  t

(* Combinatorial number system: the rank of {c_1 < ... < c_k} among the
   k-subsets in increasing-bitmask (= colex) order is sum_i C(c_i, i),
   where c_i is the position of the i-th element within [j_set].  This
   matches the order {!Varset.iter_subsets_of} enumerates. *)
let rank_in ~pascal ~j_set ksub =
  let r = ref 0 and i = ref 0 in
  Varset.iter
    (fun e ->
      incr i;
      r := !r + pascal.(Varset.rank_in e j_set).(!i))
    ksub;
  !r

(* Inverse of {!rank_in}: peel off the largest position p with
   C(p,i) <= r for i = k downto 1. *)
let unrank_in ~pascal ~j_set ~k r =
  let members = Array.of_list (Varset.elements j_set) in
  let r = ref r and sub = ref Varset.empty in
  let p = ref (Array.length members - 1) in
  for i = k downto 1 do
    while pascal.(!p).(i) > !r do
      decr p
    done;
    sub := Varset.add members.(!p) !sub;
    r := !r - pascal.(!p).(i)
  done;
  !sub

(* --- zig-zag varints (LEB128) ----------------------------------------- *)

(* Costs along colex order move in small steps, so the v3 stream stores
   per-entry deltas as zig-zag varints: 1–2 bytes where the raw layout
   spends 8.  Duplicated (deliberately) from [Ovo_store.Codec]: ovo.core
   must not depend on the store layer. *)

let varint_add buf v =
  if v < 0 then invalid_arg "Layer_pack: negative varint";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (- (v land 1))

(* Read one LEB128 varint at [!pos]; raises on truncation or a value
   that cannot have been written by [varint_add] (> 9 septets). *)
let read_varint fail s pos =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= String.length s then fail "truncated varint";
    if !shift > 62 then fail "varint overflow";
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

(* --- extents ------------------------------------------------------------ *)

type t = {
  j_set : Varset.t;
  k : int;
  total : int;  (* C(|j_set|, k): the whole layer's subset count *)
  lo : int;
  len : int;
  mutable present : int;
  data : Bytes.t;  (* dense 9 B/entry slice for ranks [lo, lo+len) *)
}

let j_set t = t.j_set
let k t = t.k
let total t = t.total
let lo t = t.lo
let len t = t.len
let present t = t.present
let size_bytes t = extent_header_bytes + (t.len * entry_bytes)

(* Raises [Invalid_argument] naming [who] unless ranks [lo, lo+len) are
   a non-empty range of the size-[k] layer over [j_set]. *)
let check_shape who ~j_set ~k ~total ~lo ~len =
  let m = Varset.cardinal j_set in
  if k < 1 || k > m || total <> binomial m k then
    invalid_arg (who ^ ": bad layer shape");
  if lo < 0 || len < 1 || lo + len > total then
    invalid_arg (who ^ ": bad extent range")

let fresh ~j_set ~k ~total ~lo ~len =
  {
    j_set;
    k;
    total;
    lo;
    len;
    present = 0;
    data = Bytes.make (len * entry_bytes) '\xff';
  }

let create ~j_set ~k ~total ~lo ~len =
  check_shape "Layer_pack.create" ~j_set ~k ~total ~lo ~len;
  fresh ~j_set ~k ~total ~lo ~len

let off_of t rank =
  if rank < t.lo || rank >= t.lo + t.len then
    invalid_arg "Layer_pack: rank outside this extent";
  (rank - t.lo) * entry_bytes

let set t ~rank ~cost ~choice =
  if cost < 0 then invalid_arg "Layer_pack.set: negative cost";
  if choice < 0 || choice > 0xff then invalid_arg "Layer_pack.set: bad choice";
  let off = off_of t rank in
  if Bytes.get_int64_le t.data off < 0L then t.present <- t.present + 1;
  Bytes.set_int64_le t.data off (Int64.of_int cost);
  Bytes.set_uint8 t.data (off + 8) choice

let mem t ~rank = Bytes.get_int64_le t.data (off_of t rank) >= 0L

let cost t ~rank =
  let c = Int64.to_int (Bytes.get_int64_le t.data (off_of t rank)) in
  if c < 0 then invalid_arg "Layer_pack.cost: entry never set";
  c

let choice t ~rank =
  let off = off_of t rank in
  if Bytes.get_int64_le t.data off < 0L then
    invalid_arg "Layer_pack.choice: entry never set";
  Bytes.get_uint8 t.data (off + 8)

let iter t f =
  for i = 0 to t.len - 1 do
    let off = i * entry_bytes in
    let c = Bytes.get_int64_le t.data off in
    if c >= 0L then
      f ~rank:(t.lo + i) ~cost:(Int64.to_int c)
        ~choice:(Bytes.get_uint8 t.data (off + 8))
  done

(* --- encoding ------------------------------------------------------------

   Both formats share one 30-byte header:
   [u8 version] [u8 k] [u64le j_set] [u32le total] [u32le lo] [u32le len]
   [u32le present] [u32le payload_len], then [payload_len] bytes. *)

let with_header t ~ver payload =
  let plen = String.length payload in
  let b = Bytes.create (extent_header_bytes + plen) in
  Bytes.set_uint8 b 0 ver;
  Bytes.set_uint8 b 1 t.k;
  Bytes.set_int64_le b 2 (Int64.of_int t.j_set);
  Bytes.set_int32_le b 10 (Int32.of_int t.total);
  Bytes.set_int32_le b 14 (Int32.of_int t.lo);
  Bytes.set_int32_le b 18 (Int32.of_int t.len);
  Bytes.set_int32_le b 22 (Int32.of_int t.present);
  Bytes.set_int32_le b 26 (Int32.of_int plen);
  Bytes.blit_string payload 0 b extent_header_bytes plen;
  Bytes.unsafe_to_string b

(* [with_header] only blits the payload, so the dense slice need not be
   copied first. *)
let encode_raw t =
  with_header t ~ver:raw_version (Bytes.unsafe_to_string t.data)

(* The compressed stream: for every set entry, in rank order,
   [varint gap-from-previous-set-rank] (first: gap from [lo - 1]) ++
   [zig-zag varint cost delta] (first: delta from 0) ++ [u8 choice].
   Costs within a layer are small and monotone-ish in colex order, so
   deltas are mostly 1-byte. *)
let encode_packed t =
  let buf = Buffer.create (t.len * 3) in
  let prev_rank = ref (t.lo - 1) and prev_cost = ref 0 in
  for i = 0 to t.len - 1 do
    let off = i * entry_bytes in
    let c64 = Bytes.get_int64_le t.data off in
    if c64 >= 0L then begin
      let rank = t.lo + i and cost = Int64.to_int c64 in
      varint_add buf (rank - !prev_rank);
      varint_add buf (zigzag (cost - !prev_cost));
      Buffer.add_char buf (Bytes.get t.data (off + 8));
      prev_rank := rank;
      prev_cost := cost
    end
  done;
  with_header t ~ver:packed_version (Buffer.contents buf)

let encode t =
  let packed = encode_packed t and raw = encode_raw t in
  if String.length packed < String.length raw then packed else raw

(* --- decoding ----------------------------------------------------------- *)

type header = {
  h_version : int;
  h_k : int;
  h_j_set : Varset.t;
  h_total : int;
  h_lo : int;
  h_len : int;
  h_present : int;
}

let header s =
  let fail msg = failwith (Printf.sprintf "Layer_pack.header: %s" msg) in
  let slen = String.length s in
  if slen < extent_header_bytes then fail "payload shorter than header";
  let u32 off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF in
  let h_version = Char.code s.[0] and h_k = Char.code s.[1] in
  let h_j_set = Int64.to_int (String.get_int64_le s 2) in
  let h_total = u32 10 and h_lo = u32 14 and h_len = u32 18 in
  let h_present = u32 22 and payload_len = u32 26 in
  if h_version <> packed_version && h_version <> raw_version then
    fail "unknown version";
  let m = Varset.cardinal h_j_set in
  if h_j_set < 0 || h_k < 1 || h_k > m then fail "inconsistent header";
  if h_total <> binomial m h_k then fail "entry count does not match layer";
  if h_len < 1 || h_lo + h_len > h_total then fail "bad extent range";
  if h_present > h_len then fail "inconsistent header";
  if slen <> extent_header_bytes + payload_len then fail "truncated extent";
  if h_version = raw_version && payload_len <> h_len * entry_bytes then
    fail "payload length mismatch";
  { h_version; h_k; h_j_set; h_total; h_lo; h_len; h_present }

(* Decode a v3 stream into [t], whose range is the header's. *)
let decompress_into fail s h t =
  let cursor = ref extent_header_bytes in
  let prev_rank = ref (h.h_lo - 1) and prev_cost = ref 0 in
  for _ = 1 to h.h_present do
    if !cursor >= String.length s then fail "truncated stream";
    let gap = read_varint fail s cursor in
    if gap <= 0 then fail "non-increasing rank" (* gap 0 = duplicate *);
    let rank = !prev_rank + gap in
    if rank >= h.h_lo + h.h_len then fail "entry rank out of range";
    let cost = !prev_cost + unzigzag (read_varint fail s cursor) in
    if cost < 0 then fail "negative cost";
    if !cursor >= String.length s then fail "truncated choice";
    let choice = Char.code s.[!cursor] in
    incr cursor;
    prev_rank := rank;
    prev_cost := cost;
    set t ~rank ~cost ~choice
  done;
  if !cursor <> String.length s then fail "trailing stream bytes"

let of_src s ~j_set ~k ~total ~lo ~len =
  let fail msg = failwith (Printf.sprintf "Layer_pack.of_src: %s" msg) in
  check_shape "Layer_pack.of_src" ~j_set ~k ~total ~lo ~len;
  let h = header s in
  if h.h_k <> k || h.h_j_set <> j_set then
    fail "payload belongs to another layer";
  if h.h_lo <> lo || h.h_len <> len then
    fail "payload covers another rank range";
  let t = fresh ~j_set ~k ~total ~lo ~len in
  if h.h_version = raw_version then begin
    Bytes.blit_string s extent_header_bytes t.data 0 (len * entry_bytes);
    for i = 0 to len - 1 do
      if Bytes.get_int64_le t.data (i * entry_bytes) >= 0L then
        t.present <- t.present + 1
    done;
    if t.present <> h.h_present then fail "present count does not match data"
  end
  else decompress_into fail s h t;
  t
