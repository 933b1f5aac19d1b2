(** On-disk spill segments for the memory-budgeted subset DP.

    When {!Ovo_core.Subset_dp} runs past its {!Ovo_core.Membudget},
    completed cost/choice {e extents} — fixed-size rank ranges of a
    cardinality layer — leave RAM through the injected sink and come
    back lazily during backtracking.  This module is the sink's
    store-side implementation: one segment file per extent
    ([layer-KK-EEE.seg] in the spill directory), written atomically
    (temp + fsync + rename), so a segment on disk is either complete and
    checksummed or absent.

    Each segment is a CRC-framed {!Rlog} whose single record is the
    encoded extent, so a flipped bit, a truncated tail or a foreign file
    surfaces as [Failure] — the DP reports a clean error and never
    reconstructs from damaged extents. *)

type t
(** A spill directory handle, tracking the segments it wrote. *)

val create : ?fsync:Rlog.fsync -> string -> t
(** Open (creating, recursively) a spill directory.  [fsync] (default
    {!Rlog.Never}) governs segment durability — spill files are
    scratch, so the default only guarantees process-crash safety.
    Raises [Failure] if the path exists and is not a directory. *)

val dir : t -> string

val sink : t -> Ovo_core.Membudget.sink
(** The pair of closures {!Ovo_core.Membudget} injects into the DP. *)

val spill : t -> k:int -> ext:int -> string -> unit
(** Write (atomically, replacing) the segment for extent [ext] of layer
    [k]. *)

val reload : t -> k:int -> ext:int -> string
(** Read the extent's payload back.  Raises [Failure] on a missing,
    corrupt or truncated segment. *)

val remove : t -> unit
(** Delete every segment this handle wrote, then the directory itself
    if (and only if) it is empty.  Safe to call twice. *)
