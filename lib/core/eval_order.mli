(** Evaluating a {e given} variable ordering.

    A single compaction chain computes the reduced diagram of [f] under a
    fixed ordering in [O(2^{n+1})] table cells — the per-candidate cost
    that makes brute force [O*(n! · 2^n)] and that the ordering
    heuristics (sifting, window permutation, random search) pay per
    probe.  Orderings follow the repository convention: [order.(0)] is
    the variable read last (the paper's [π[1]]). *)

val state :
  ?kind:Compact.kind ->
  ?metrics:Metrics.t ->
  Ovo_boolfun.Truthtable.t ->
  int array ->
  Compact.state
(** Complete compaction state under the given ordering; the [n]
    compactions are charged to [metrics] (default a fresh context).
    Raises [Invalid_argument] if [order] is not a permutation of the
    variables. *)

val state_mtable :
  ?kind:Compact.kind ->
  ?metrics:Metrics.t ->
  Ovo_boolfun.Mtable.t ->
  int array ->
  Compact.state
(** Multi-terminal variant. *)

val mincost :
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> int
(** Non-terminal node count under the ordering. *)

val size : ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> int
(** Paper-convention size (nodes + reachable terminals). *)

val widths :
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> int array
(** [widths.(j)] = number of nodes labeled [order.(j)] (level [j+1]). *)

val diagram :
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> Diagram.t
(** The reduced diagram itself. *)

val read_first : int array -> int array
(** Convert between the two ordering directions (the function is its own
    inverse: it just reverses the array). *)
