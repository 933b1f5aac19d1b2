(** Per-run operation accounting.

    A {!t} is a mutable context owned by one run of a dynamic program (or
    by one worker domain of a parallel run; see {!Engine}).  The core
    algorithms take the context explicitly — an omitted [?metrics] is a
    fresh context nobody reads — so concurrent runs, or the per-layer
    worker domains of {!Engine.Par}, never contaminate each other: each
    domain counts into its own scratch context and the engine
    {!merge_into}s the scratches after the join.

    Counter discipline (chosen so that [table_cells] keeps the exact
    meaning the complexity theorems price — one unit per table cell
    processed while {e evaluating a candidate}):

    - {!Compact.compact} (a direct, stand-alone compaction): charges
      [table_cells], [compactions] and [node_creations].
    - {!Compact.width_if_compacted} (the cost probe): charges
      [table_cells] and [cost_probes] — a probe does the same cell scan
      a compaction would, it just writes no table.
    - {!Compact.materialise} (building the already-costed winner inside
      the DP): charges [states_materialised] and [node_creations] but
      {e not} [table_cells] — its cells were already charged by the
      probe that elected it.
    - {!Compact.nodes} (recovering a final diagram's nodes by replay)
      charges nothing.

    With this discipline the measured [table_cells] of a full {!Fs.run}
    is exactly the paper's [n·3^(n-1)] (Theorem 5).

    [node_table_copies] always reads 0.  It counted the per-state copies
    of the node set [NODE_I] that DP states used to carry; states now
    keep only [TABLE_I] and [MINCOST_I] ({!Compact}), so no copy is
    taken.  The field stays in the record and in the JSON schema so
    that readers of [--stats json], trace span arguments and benchmark
    reports keep a stable shape. *)

type t = private {
  mutable table_cells : int;
      (** cells scanned during candidate evaluation (probe or compact) *)
  mutable cost_probes : int;  (** allocation-free cost probes *)
  mutable compactions : int;  (** stand-alone {!Compact.compact} steps *)
  mutable node_creations : int;  (** fresh diagram nodes allocated *)
  mutable states_materialised : int;  (** winner states built by the DP *)
  mutable node_table_copies : int;  (** always 0; see above *)
}

type snapshot = {
  s_table_cells : int;
  s_cost_probes : int;
  s_compactions : int;
  s_node_creations : int;
  s_states_materialised : int;
  s_node_table_copies : int;
}
(** An immutable copy of the counters, for before/after arithmetic. *)

val create : unit -> t
(** A fresh context with all counters at zero. *)

val reset : t -> unit
(** Zero every counter in place. *)

val snapshot : t -> snapshot
(** An immutable copy of the current counter values. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val merge_into : into:t -> t -> unit
(** Add every counter of the second context into [into].  Used by
    {!Engine} to fold worker-domain scratches into the run's context. *)

val add_cells : t -> int -> unit
val add_probe : t -> unit
val add_compaction : t -> unit
val add_nodes : t -> int -> unit
val add_state : t -> unit
(** Incrementors used by the core algorithms. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable one-liner, for [--stats text]. *)

val to_args : snapshot -> (string * Ovo_obs.Json.t) list
(** The counters as JSON fields — span attributes for the tracer, and
    the body of {!to_json_value}. *)

val to_json_value : snapshot -> Ovo_obs.Json.t
(** {!to_args} wrapped as a JSON object value. *)

val to_json : snapshot -> string
(** One-line JSON object, for [--stats json] and the bench harness.
    Emitted through the shared {!Ovo_obs.Json} emitter; inverse
    {!of_json}. *)

val of_json_value : Ovo_obs.Json.t -> snapshot option
(** Parse a {!to_json_value} object; [None] on mismatch. *)

val of_json : string -> snapshot option
(** Parse {!to_json} output back; [None] on malformed or incomplete
    input. *)
