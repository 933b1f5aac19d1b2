(** Multi-rooted (shared) decision diagrams — exact ordering optimisation
    for several functions at once.

    Real designs expose many outputs over the same inputs, represented as
    one shared diagram: a single node store, one root per output, with
    subfunctions common to several outputs stored once.  The paper's
    related work (Tani–Hamaguchi–Yajima [THY96]) studies exactly this
    multi-rooted setting; the FS dynamic program generalises verbatim —
    a compaction step scans one table {e per root} and deduplicates
    across them, so the objective counts each distinct subfunction once
    no matter how many outputs use it.

    That generalisation lives in {!Compact} (a state with [m] tables,
    built by {!Compact.initial_shared}) and the sweep is {!Fs_star}'s;
    this module is only the multi-output API on top.

    Cost per compaction: [m · 2^(n-|I|-1)] cells for [m] roots — the DP
    remains [O*(m · 3^n)]. *)

type result = {
  mincost : int;  (** shared non-terminal count *)
  size : int;  (** plus reachable terminals *)
  order : int array;  (** optimal ordering, read-last first *)
  state : Compact.state;  (** the complete optimal state *)
}

val minimize :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  Ovo_boolfun.Truthtable.t array ->
  result
(** Exact optimal ordering for the shared diagram (the FS dynamic
    program over shared states): visits all [2^n] subsets, [O*(m·3^n)]
    cells.  [engine]/[cancel]/[metrics] as in {!Fs.run}. *)

val minimize_mtables :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  Ovo_boolfun.Mtable.t array ->
  result

val of_state : Compact.state -> result
(** Package a complete shared state (any provenance) as a result. *)

val roots : Compact.state -> int array
(** Root ids of a complete state, one per input table. *)

val diagrams : Compact.state -> Diagram.t array
(** One per-root {!Diagram} view of a complete shared state (node arrays
    are copies; node ids — and hence sharing — are preserved across the
    views).  Enables per-output evaluation, DOT export, serialisation and
    checking with the ordinary diagram tooling. *)

val check : Compact.state -> Ovo_boolfun.Mtable.t array -> bool
(** Semantic equivalence of every root against its table
    ({!Diagram.check} on each of the {!diagrams}). *)

val to_dot : Compact.state -> string
(** Graphviz rendering of a complete shared diagram (roots annotated). *)
