(** Algorithm [FS*] — the composable Friedman–Supowit dynamic program
    (paper Lemma 8 and the pseudo-code of Appendix D).

    Given [FS(⟨I₁,…,I_m⟩)] — here a {!Compact.state} whose assigned set
    is [I = I₁ ∪ … ∪ I_m] — and a set [J] of still-free variables, [FS*]
    computes [FS(⟨I₁,…,I_m,K⟩)] for every [K ⊆ J] by cardinality, using
    the recurrence of Lemma 7:

    [MINCOST⟨I,K⟩ = min_{h ∈ K} MINCOST⟨I, K∖h, h⟩].

    Stopping at cardinality [k] yields the set
    [{FS(⟨I,K⟩) : K ⊆ J, |K| = k}] in
    [O*(2^(n-|I|-|J|) · Σ_(j≤k) 2^(|J|-j) C(|J|,j))] time — the exact
    bound of Lemma 8 — which is the preprocessing step of the quantum
    algorithms.  Running to [k = |J|] with [I = ∅], [J = \[n\]] is the
    original algorithm FS (Theorem 5). *)

module Dp : Subset_dp.DP with type state = Compact.state
(** The one subset DP over {!Compact} states, single- and multi-root
    alike; the functions below are its [FS*] entry points.  The quantum
    algorithms drive it directly. *)

type t = private {
  base_assigned : Varset.t;  (** the set [I] of the base state *)
  j_set : Varset.t;
  upto : int;  (** cardinality at which the run stopped *)
  mincosts : (Varset.t, int) Hashtbl.t;
      (** [MINCOST⟨I,K⟩] for every [K ⊆ J] with [|K| ≤ upto] (including
          [K = ∅], the base's own cost) *)
  layer : (Varset.t, Compact.state) Hashtbl.t;
      (** the optimal states at cardinality [upto], keyed by [K] *)
}

type costs = Subset_dp.costs = {
  cost_j_set : Varset.t;
  cost_upto : int;
  cost_table : (Varset.t, int) Hashtbl.t;
      (** [MINCOST⟨I,K⟩] for every computed [K] (including [∅]) *)
  cost_choice : (Varset.t, int) Hashtbl.t;
      (** backtracking pointers: a tight last-placed [h] per [K ≠ ∅] *)
}
(** The cost-table result of {!costs} — see {!Subset_dp.costs}. *)

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  ?upto:int ->
  base:Compact.state ->
  Varset.t ->
  t
(** [run ~base j_set] requires [j_set] to be a subset of the base
    state's free variables; [upto] defaults to [|j_set|] (full run).
    Raises [Invalid_argument] on violations.  [engine] (default
    {!Engine.Seq}) splits each cardinality layer across domains;
    [metrics] (default a fresh context) receives the run's counters,
    aggregated across domains; [cancel] (default {!Cancel.never}) is
    polled between layers; [on_layer]/[resume] checkpoint and resume the
    sweep at those same boundaries — see {!Subset_dp.Make.run}. *)

val costs :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  ?upto:int ->
  base:Compact.state ->
  Varset.t ->
  costs
(** Pure cost-table mode: same sweep as {!run} but no layer of states is
    returned — only [MINCOST⟨I,K⟩] and the backtracking pointers, two
    integers per subset.  Same validation and defaults as {!run}. *)

val reconstruct :
  ?trace:Ovo_obs.Trace.t ->
  ?metrics:Metrics.t ->
  base:Compact.state ->
  costs ->
  Varset.t ->
  Compact.state
(** [reconstruct ~base ct k] materialises an optimal state for [K = k] by
    backtracking the tight transitions recorded in [ct] — [|k|]
    compactions over [base].  Requires [k ⊆ ct.cost_j_set] and
    [|k| ≤ ct.cost_upto]. *)

val state_of : t -> Varset.t -> Compact.state
(** The optimal state for a [K] in the final layer; raises [Not_found]
    for other sets. *)

val mincost_of : t -> Varset.t -> int
(** [MINCOST⟨I,K⟩]; raises [Not_found] when [K] was not computed. *)

val complete :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  base:Compact.state ->
  Varset.t ->
  Compact.state
(** [complete ~base j_set]: full run returning the single optimal state
    for [K = J] — the
    composition step [FS(⟨I⟩) ↦ FS(⟨I,J⟩)] used verbatim by the quantum
    algorithms (their classical subroutine [Γ = FS*]).  Runs in
    cost-table mode and reconstructs the winner, so it never holds more
    than one layer of states. *)
