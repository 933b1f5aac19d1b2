(** The subset dynamic program of Lemmas 4/7, abstracted over the state
    being compacted — now a {e two-pass} engine.

    [FS*] ({!Fs_star}, over {!Compact} states of one or several roots)
    and the weighted variant ({!Fs_weighted}) run the same loop: for
    growing cardinality [k],
    compute the optimal state for every [K ⊆ J] with [|K| = k] by trying
    each [h ∈ K] on top of the optimal state for [K ∖ {h}].  This functor
    captures that loop once; the per-state operations come from the
    parameter.

    The loop evaluates each subset in two passes: a {e cost pass} probes
    every candidate [h] with the allocation-free [cost_if_compacted]
    kernel, and only the single winner is then materialised — losing
    candidates never allocate a state.  Layers are
    independent given their predecessor, so an {!Engine.Par} engine
    splits each layer across worker domains, each counting into its own
    {!Metrics.t} scratch; results are deterministic and identical to
    {!Engine.Seq}.

    Every completed cardinality layer is bit-packed into {!Layer_pack}
    extents holding [MINCOST⟨K⟩] and the tight last-placed variable
    (9 bytes per subset) and accounted against an optional
    {!Membudget}: past the budget, extents spill through the injected
    sink and are reloaded lazily when read back — results stay
    bit-identical to the in-memory run under both engines, because
    packing happens after the parallel join.  The packed layers are the
    only store of finished layers, and one backtrack over them recovers
    the optimal ordering, as the paper does from its MINCOST table:
    {!complete} follows the recorded choices from [J] down to [∅] and
    replays them over the base in [|J|] compactions.  {!run} (which
    also returns the final layer's states) and {!costs} (the MINCOST
    table alone) read the same packed layers back.

    With a {!Bound.t} context ([?prune]) the sweep becomes an exact
    {e branch-and-bound}: a subset whose cost plus admissible remaining
    bound exceeds the incumbent is never materialised (nor packed — a
    pruned layer spills sparse).  The incumbent is seeded from an
    injected upper bound and tightened at layer boundaries from states
    whose completion cost is known exactly, on the calling domain only,
    so the surviving state set — and every answer — is deterministic
    and bit-identical to the unpruned sweep under {!Engine.Seq} and
    {!Engine.Par} alike.  A layer losing {e all} states raises
    {!Bound.Pruned_out}: no completion of the base beats the incumbent
    (only possible when the incumbent came from outside this sweep, as
    in the quantum tower's shared-incumbent sub-sweeps, or from an
    unsound seed).  Pruning is incompatible with [resume]. *)

module type COMPACTABLE = sig
  type state

  val cost_if_compacted : metrics:Metrics.t -> state -> int -> int
  (** The DP objective the state would have after placing one variable
      on top of the assigned block — computed {e without} building the
      state.  Must equal
      [mincost (materialise st h)] exactly. *)

  val materialise : metrics:Metrics.t -> state -> int -> state
  (** Place one variable on top of the assigned block (the winner of a
      cost pass; accounting goes to the materialisation counters). *)

  val mincost : state -> int
  (** Non-terminal nodes created so far (the DP objective). *)

  val free : state -> Varset.t
  (** Variables not yet assigned. *)
end

type progress = {
  p_layer : int;  (** the cardinality layer that just completed *)
  p_entries : (Varset.t * int * int) array;
      (** one [(K, MINCOST⟨K⟩, tight last-placed h)] triple per subset
          of the layer, in enumeration (Gosper) order *)
}
(** One completed cardinality layer of a sweep — everything a checkpoint
    needs to persist, and everything a resumed sweep needs back.  It is
    state-independent: rebuilding the layer's states is a
    deterministic replay of the recorded choice chains, so a resumed run
    is bit-identical to an uninterrupted one under both engines. *)

val binomial : int -> int -> int
(** [binomial n k] = C(n,k); [0] outside [0 <= k <= n].  Exposed for
    resume validation (a complete layer [k] over [J] has [C(|J|,k)]
    entries). *)

(** A subset DP over one kind of state: its kernels together with the
    sweep built on them. *)
module type DP = sig
  include COMPACTABLE

  type t = {
    j_set : Varset.t;
    upto : int;
    mincosts : (Varset.t, int) Hashtbl.t;
        (** [MINCOST⟨base, K⟩] for every computed [K] (including [∅]) *)
    layer : (Varset.t, state) Hashtbl.t;
        (** optimal states at cardinality [upto] *)
  }

  val run :
    ?trace:Ovo_obs.Trace.t ->
    ?engine:Engine.t ->
    ?cancel:Cancel.t ->
    ?metrics:Metrics.t ->
    ?membudget:Membudget.t ->
    ?prune:Bound.t ->
    ?on_layer:(progress -> unit) ->
    ?resume:progress list ->
    ?upto:int ->
    base:state ->
    Varset.t ->
    t
  (** As {!Fs_star.run}: requires [j_set ⊆ free base]; [upto] defaults
      to [|j_set|].  Engine defaults to {!Engine.Seq}; metrics to a
      fresh context.  Intermediate layers are dropped eagerly (only
      [mincosts] survives), so peak state memory is two adjacent layers
      during the sweep and one — the returned [upto] layer — after.

      [cancel] (default {!Cancel.never}) is polled between cardinality
      layers: a fired token makes the sweep raise {!Cancel.Cancelled}
      instead of starting the next layer, so a deadline-expired run
      stops within one layer's work.  Wrap the call in {!Cancel.protect}
      for a typed [Error `Cancelled] instead of the exception.

      [on_layer] (default a no-op) fires at the same layer boundaries
      [cancel] is polled at, once per {e newly computed} layer — the
      checkpoint-emission hook.  An exception it raises aborts the sweep
      and propagates.  [resume] (default [[]]) replays previously
      completed layers [1..m] (consecutive, complete, validated): their
      triples preload the cost/choice tables, layer [m]'s states are
      rebuilt by replaying each subset's recorded chain over [base], and
      the sweep continues at [m+1] — bit-identical to an uninterrupted
      run under {!Engine.Seq} and {!Engine.Par} alike.

      [membudget] (default an {!Membudget.unbounded} context) accounts
      the packed bytes of every completed layer; with a budget and sink
      set, layers past the budget spill to disk and reload lazily when
      read back.  Results are unaffected — only residency changes. *)

  val costs :
    ?trace:Ovo_obs.Trace.t ->
    ?engine:Engine.t ->
    ?cancel:Cancel.t ->
    ?metrics:Metrics.t ->
    ?membudget:Membudget.t ->
    ?prune:Bound.t ->
    ?on_layer:(progress -> unit) ->
    ?resume:progress list ->
    ?upto:int ->
    base:state ->
    Varset.t ->
    (Varset.t, int) Hashtbl.t
  (** Pure cost-table mode: same sweep, but the final layer's states are
      never materialised and only [MINCOST⟨base, K⟩] for every computed
      [K] (including [∅]) is returned — the [mincosts] of {!run}.  Same
      validation and defaults as {!run}, including [on_layer] and
      [resume]. *)

  val state_of : t -> Varset.t -> state
  (** The kept optimal state of a subset at cardinality [upto].  Raises
      {!Bound.Pruned_out} when a pruned sweep discarded it — the subset
      provably heads no ordering beating the incumbent. *)

  val mincost_of : t -> Varset.t -> int
  (** [MINCOST⟨base, K⟩]; raises {!Bound.Pruned_out} when pruned. *)

  val complete :
    ?trace:Ovo_obs.Trace.t ->
    ?engine:Engine.t ->
    ?cancel:Cancel.t ->
    ?metrics:Metrics.t ->
    ?membudget:Membudget.t ->
    ?prune:Bound.t ->
    ?on_layer:(progress -> unit) ->
    ?resume:progress list ->
    base:state ->
    Varset.t ->
    state
  (** Full run; the optimal state for [K = J].  A cost-only sweep
      followed by the backtrack {e directly over the packed layers} —
      no hashtable is built, at most one layer of states is live at any
      time, and with a budgeted [membudget] spilled extents are reloaded
      lazily (only those the chain crosses), so this is the out-of-core
      entry point {!Fs.run} drives.  Emits the ["dp.reconstruct"] span
      for the backtrack. *)
end

module Make (S : COMPACTABLE) : DP with type state = S.state
