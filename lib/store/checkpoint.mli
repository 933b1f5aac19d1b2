(** Checkpoint/resume for the exact Friedman–Supowit sweep.

    A checkpoint file is an {!Rlog} with one [meta] record (what run
    this is: exact-table digest and diagram kind) followed by one
    [layer] record per completed cardinality layer — the DP's [on_layer]
    hook fires at the same boundaries cancellation is polled.

    Each layer record's payload is the whole layer encoded as one
    full-range {!Ovo_core.Layer_pack} extent (ranks [0 .. C(m,k)-1],
    subsets placed by {!Ovo_core.Layer_pack.rank_in}), so checkpoints
    share the pack encoders (compressed v3 or raw v4, whichever is
    smaller).  A checkpoint is a write-only log while the sweep runs: a
    memory-budgeted run spills through {!Spill} like any other, and only
    {!load}/{!open_resume} read the records back.  Records in the
    pre-unification triple format (record type 1), and layer records in
    the retired v1/v2 pack formats, end the resume prefix: an old
    checkpoint degrades to a clean fresh start.

    Because layer states are rebuilt by deterministically replaying the
    recorded choice chains, a run killed at any point and resumed from
    its checkpoint produces a solution bit-identical to an uninterrupted
    run, under both {!Ovo_core.Engine.Seq} and {!Ovo_core.Engine.Par}.
    A torn final record (kill -9 mid-append) is truncated away on
    reopen and merely costs re-running that one layer. *)

type meta = {
  ck_digest : string;
      (** {!Ovo_boolfun.Truthtable.digest_of_canonical} of the exact
          input table — an as-is content hash, no canonicalization *)
  ck_kind : Ovo_core.Compact.kind;
}

val meta_of :
  kind:Ovo_core.Compact.kind -> Ovo_boolfun.Truthtable.t -> meta

type t
(** An open checkpoint writer. *)

val create : ?fsync:Rlog.fsync -> path:string -> meta -> t
(** Start a fresh checkpoint, truncating any existing file. *)

val append_layer : t -> Ovo_core.Subset_dp.progress -> unit
(** Persist one completed layer — the [on_layer] hook.  The layer must
    be complete (unpruned). *)

val close : t -> unit

val load :
  string -> (meta * Ovo_core.Subset_dp.progress list, string) result
(** Read a checkpoint: the meta record plus the longest consecutive
    prefix of layers [1..m] that decodes cleanly (torn or corrupt
    records end the prefix).  [Error] when the file is missing, carries
    a foreign magic, or has no valid meta record. *)

val open_resume :
  ?fsync:Rlog.fsync ->
  path:string ->
  meta ->
  t * Ovo_core.Subset_dp.progress list
(** Resume: when [path] holds a checkpoint whose meta matches, the file
    is compacted back to its valid prefix (meta + layers [1..m],
    atomically rewritten) and reopened for appending layer [m+1]; the
    recovered layers are returned for the DP's [resume] argument.
    Raises [Failure] when the file exists but records a {e different}
    run (digest or kind mismatch) — resuming it would corrupt both
    runs.  A missing file degrades to {!create}. *)
