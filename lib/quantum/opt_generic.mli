(** The quantum divide-and-conquer machinery, abstracted over the
    subset DP it composes.

    The paper's algorithms never look inside [FS(⟨…⟩)] beyond "compact
    one more variable", "read the cost" and "which variables are free" —
    the interface of {!Ovo_core.Subset_dp}.  The functor takes a
    finished DP instance, so the quantum code drives the same sweep as
    the classical solvers.  {!Opt_obdd} instantiates it on
    {!Ovo_core.Fs_star.Dp}, whose {!Ovo_core.Compact} states cover plain
    and multi-rooted shared diagrams alike ({!Opt_shared}), supporting
    the paper's closing remark that the speedups carry over to other
    diagram variants. *)

module Make (Dp : Ovo_core.Subset_dp.DP) : sig
  type subroutine
  (** A procedure extending a state over a free block [J], with modeled
      cost; the composable unit of Lemmas 11/12. *)

  val name : subroutine -> string

  val apply :
    subroutine -> Qctx.t -> Dp.state -> Ovo_core.Varset.t -> Dp.state * float

  val fs_star : subroutine
  (** The classical composition (Lemma 8 over [Dp]); modeled cost =
      measured table cells. *)

  val simple_split : ?alpha:float -> unit -> subroutine
  (** Section 3.1's single-split algorithm (no preprocessing). *)

  val opt_obdd :
    ?label:string -> k:int -> alpha:float array -> subroutine -> subroutine
  (** [OptOBDD*_gamma(k, α)] over [Dp]; see {!Opt_obdd.opt_obdd} for the
      parameter contract. *)

  val theorem10 : ?k:int -> unit -> subroutine
  (** Published Table 1 parameters (default [k = 6]). *)

  val tower : depth:int -> subroutine
  (** The Theorem 13 composition with the published Table 2 rows;
      [depth] in [1..10]. *)

  val run :
    Qctx.t -> subroutine -> base:Dp.state -> Ovo_core.Varset.t -> Dp.state * float
  (** Apply a subroutine over a block (alias of {!apply} with labels). *)
end
