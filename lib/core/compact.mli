(** Table compaction — the primitive of the Friedman–Supowit dynamic
    program (paper Sec. 2.3.1 and the [COMPACT] function of algorithm
    [FS*] in Appendix D).

    A {!state} materialises what the Lemma 4/7 recurrence needs of the
    paper's [FS(⟨I₁,…,I_m⟩)] for the assigned set
    [I = I₁ ∪ … ∪ I_m]:

    - [TABLE_I]: one cell per assignment [b] to the unassigned variables,
      holding the id of the diagram node for the subfunction
      [f|_{x_{[n]∖I} = b}] — one such table per root;
    - [MINCOST_I]: the number of non-terminal nodes created so far, i.e.
      the minimum achievable size of the bottom [|I|] levels given the
      segment constraints accumulated so far;
    - the suborder [π] achieved (the paper keeps it implicitly).

    The paper's third component, the node set [NODE_I], is not kept.
    Its only use in [COMPACT] is deduplication, and a compaction w.r.t.
    a free variable [i] never meets an earlier node: every node already
    created is labelled by an assigned variable, so the key
    [(i, lo, hi)] of a new node is fresh by construction (node
    equivalence follows the paper's prose, which requires
    [var(u) = var(v)]).  Deduplicating the [(lo, hi)] pairs of one scan
    is therefore exact.  Node ids are handed out in scan order, so they
    are a deterministic function of the placement sequence; {!nodes}
    recovers the node set of any state by replaying its suborder over
    [FS(∅)], which every state of a solve shares by pointer.

    [compact st i] performs one table compaction with respect to variable
    [i]: it produces the state for assigned set [I ∪ {i}] in which [i] is
    read immediately above the variables of [I] — the paper's
    [FS(⟨I, {i}⟩)] from [FS(⟨I⟩)].  The cost is linear in the size of the
    new tables (half the old ones), as the complexity analysis requires.

    Several roots (a shared, multi-output diagram, see {!Shared}) scan
    their tables in root order within one compaction, deduplicating
    across roots, so a subfunction used by several outputs is created
    and counted once.  A single-output state is the case [m = 1].

    Table indexing: the unassigned variables, sorted ascending, map to the
    bit positions of the cell index (smallest variable ↔ bit 0). *)

type kind =
  | Bdd  (** delete nodes with [lo = hi] (also the MTBDD rule) *)
  | Zdd  (** delete nodes with [hi] = terminal 0 (zero-suppression) *)

type node = { var : int; lo : int; hi : int }
(** A non-terminal diagram node: tests [var], [lo]/[hi] are the ids of
    the 0- and 1-children. *)

type state = private {
  n : int;  (** total number of variables *)
  kind : kind;
  num_terminals : int;  (** terminal ids are [0 .. num_terminals-1] *)
  assigned : Varset.t;  (** the set [I] *)
  order_rev : int list;  (** achieved suborder, most recent first; so
                             [List.rev order_rev] is [π[1], …, π[|I|]] *)
  tables : int array array;
      (** [TABLE_I], one per root, each of [2^(n-|I|)] node ids *)
  origin : int array array;
      (** [TABLE_∅] (the truth tables), shared by every state of a solve
          and never copied — the start of the {!nodes} replay *)
  mincost : int;  (** [MINCOST_I]: non-terminal nodes over all roots *)
  next_id : int;  (** the id the next created node gets *)
}

val initial : kind -> Ovo_boolfun.Mtable.t -> state
(** The paper's [FS(∅)] for one root: [TABLE_∅] is the truth table itself
    (cells are terminal ids), [MINCOST_∅ = 0]. *)

val initial_shared : kind -> Ovo_boolfun.Mtable.t array -> state
(** [FS(∅)] for several roots over the same inputs.  All tables must
    have the same arity and value alphabet, and at least one root is
    required; raises [Invalid_argument] otherwise. *)

val of_truthtable : kind -> Ovo_boolfun.Truthtable.t -> state
(** Boolean convenience wrapper around {!initial} (two terminals). *)

val compact : ?metrics:Metrics.t -> state -> int -> state
(** [compact st i] — see above.  Raises [Invalid_argument] if [i] is out
    of range or already assigned.  The input state is not mutated.
    Charges [table_cells], [compactions] and [node_creations] to
    [metrics] (default: a fresh context). *)

val width_if_compacted : ?metrics:Metrics.t -> state -> int -> int
(** The cost-only kernel of the two-pass DP: how many nodes
    [compact st i] {e would} create — the paper's [Cost_i] — computed by
    the same scan, writing no table and building no state.  Charges
    [table_cells] (a probe does the work the theorems price) and
    [cost_probes].  Safe to call concurrently on shared frozen states
    from {!Engine.Par} workers. *)

val mincost_if_compacted : ?metrics:Metrics.t -> state -> int -> int
(** [st.mincost + width_if_compacted st i] — the DP objective of the
    candidate, without building it. *)

val materialise : ?metrics:Metrics.t -> state -> int -> state
(** Exactly {!compact}, but with DP-winner accounting: the candidate's
    cells were already charged by the {!width_if_compacted} probe that
    elected it, so this charges only [states_materialised] and
    [node_creations]. *)

val compact_chain : state -> int array -> state
(** Fold {!compact} over the variables of an array, left to right: the
    result is the state of the fully specified suborder.  [O(2^{n-|I|+1})]
    cells per root in total when the chain exhausts all free variables. *)

val width_of_last : before:state -> after:state -> int
(** Number of nodes created by the last compaction — the paper's
    [Cost_i(f, π)] for the newly placed variable (Lemma 3 guarantees this
    only depends on the set split, not on the suborders). *)

val nodes : state -> node array
(** The nodes created so far: the node with id [u] is
    [(nodes st).(u - st.num_terminals)], and the array has
    [st.next_id - st.num_terminals] entries.  Recovered by one recording
    replay of {!order} over [st.origin] — fewer than [m · 2^n] cells,
    against the [n·3^(n-1)] of a full sweep. *)

val free : state -> Varset.t
(** The unassigned variables [\[n\] ∖ I]. *)

val order : state -> int list
(** The achieved suborder [π[1], …, π[|I|]] (read-last first). *)

val is_complete : state -> bool
(** All variables assigned (each table has a single cell: its root). *)

val root : state -> int
(** Root node id of a complete single-root state; raises
    [Invalid_argument] if the state is not complete or has several
    roots. *)
