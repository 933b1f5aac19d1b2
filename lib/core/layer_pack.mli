(** Bit-packed cost/choice tables for one cardinality layer of the
    subset DP.

    The sweep of {!Subset_dp} produces, for every [k]-subset [K] of the
    free variables, a minimum cost and the variable chosen last — two
    small integers.  A [Layer_pack.t] stores a {e rank range} of that
    layer (an extent) in one flat [Bytes] buffer at 9 bytes per subset
    (8-byte LE cost, 1-byte choice), indexed by the subset's
    {e combinatorial rank} (colex order — the order
    {!Varset.iter_subsets_of} enumerates, so ranks are dense in
    [0 .. C(m,k)-1]).  A whole layer is the extent of all those ranks;
    the out-of-core sweep splits a layer into fixed-size extents so it
    can spill and reload {e partial} layers.

    Two on-disk formats share one self-describing 30-byte header:
    compressed v3 (delta+varint over the colex stream of set entries —
    cost locality and pruning spill small) and raw v4 (the dense slice
    verbatim); {!encode} picks the smaller, so an encoded extent is
    never larger than its resident charge.  A payload decodes only as
    the extent its header names: a spill segment as its extent, a
    checkpoint record as its whole layer. *)

type t
(** One extent: the [(cost, choice)] of the size-[k] subsets of a
    universe [j_set] whose ranks lie in [lo .. lo+len-1]. *)

val binomial : int -> int -> int
(** [binomial n k] = [C(n,k)]; [0] outside [0 <= k <= n]. *)

val entry_bytes : int
(** Bytes per packed entry (9). *)

val extent_header_bytes : int
(** Bytes of the self-describing v3/v4 header (30). *)

(** {1 Combinatorial number system} *)

val pascal_table : m:int -> k:int -> int array array
(** [pascal.(p).(i) = C(p,i)] for [p <= m], [i <= k] — the table
    {!rank_in}/{!unrank_in} consume.  Build once per sweep with
    [k = upto] and share it across layers. *)

val rank_in : pascal:int array array -> j_set:Varset.t -> Varset.t -> int
(** Combinatorial (colex) rank of a subset within [j_set] — the order
    {!Varset.iter_subsets_of} enumerates.  No validation: the caller
    guarantees the subset is within [j_set] and the table is wide
    enough. *)

val unrank_in :
  pascal:int array array -> j_set:Varset.t -> k:int -> int -> Varset.t
(** Inverse of {!rank_in} for size-[k] subsets. *)

(** {1 Extents} *)

val create : j_set:Varset.t -> k:int -> total:int -> lo:int -> len:int -> t
(** An empty extent covering ranks [lo .. lo+len-1] of the size-[k]
    layer over [j_set] ([total = C(cardinal j_set, k)], validated);
    entries are unset until {!set}.  Raises [Invalid_argument] on an
    empty or out-of-range extent. *)

val j_set : t -> Varset.t
val k : t -> int

val total : t -> int
(** The whole layer's subset count (not this extent's). *)

val lo : t -> int

val len : t -> int
(** First rank covered / number of ranks covered. *)

val present : t -> int
(** Entries actually set within the extent; [< len] after pruning. *)

val size_bytes : t -> int
(** Resident charge: the 30-byte header plus [len * 9] dense bytes,
    regardless of how many entries are set. *)

val set : t -> rank:int -> cost:int -> choice:int -> unit
(** Write the entry of a {e global} rank; raises [Invalid_argument]
    outside [lo .. lo+len-1], on a negative cost (the sign bit marks
    unset entries) or a choice that does not fit a byte. *)

val mem : t -> rank:int -> bool
val cost : t -> rank:int -> int

val choice : t -> rank:int -> int
(** Read by global rank; {!cost}/{!choice} raise [Invalid_argument]
    on an unset (pruned) entry. *)

val iter : t -> (rank:int -> cost:int -> choice:int -> unit) -> unit
(** Every set entry, in rank order; unset (pruned) ranks are
    skipped. *)

(** {1 Encoding} *)

val encode : t -> string
(** The smaller of {!encode_packed} (compressed v3) and {!encode_raw}
    (v4) — compression is chosen exactly when it wins.  Real cost tables
    are monotone-ish in colex order, so v3 usually wins by 2× or
    more. *)

val encode_packed : t -> string
val encode_raw : t -> string

type header = {
  h_version : int;  (** 3 (compressed) or 4 (raw) *)
  h_k : int;
  h_j_set : Varset.t;
  h_total : int;
  h_lo : int;
  h_len : int;
  h_present : int;
}
(** What a payload says about itself. *)

val header : string -> header
(** Read and validate a payload's header: known version, a consistent
    layer shape and rank range, and a length that matches the declared
    payload.  Raises [Failure] otherwise. *)

val of_src :
  string -> j_set:Varset.t -> k:int -> total:int -> lo:int -> len:int -> t
(** Decode the extent covering ranks [lo .. lo+len-1] from a payload
    that encodes exactly that extent.  Raises [Failure] on damage —
    wrong layer or rank range, truncation, rank disorder, negative
    costs, present-count mismatch — and [Invalid_argument] on a
    malformed request. *)
