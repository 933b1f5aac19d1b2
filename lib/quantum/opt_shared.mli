(** Quantum (simulated) joint optimisation of multi-rooted diagrams.
    A shared state is a {!Ovo_core.Compact} state with several roots, so
    the {!Opt_obdd} subroutines apply unchanged: the same
    divide-and-conquer, quantum minimum finding and composition tower,
    minimising the shared node count of several functions at once. *)

type subroutine = Opt_obdd.subroutine

val name : subroutine -> string

val fs_star : subroutine
val simple_split : ?alpha:float -> unit -> subroutine
val opt_obdd :
  ?label:string -> k:int -> alpha:float array -> subroutine -> subroutine
val theorem10 : ?k:int -> unit -> subroutine
val tower : depth:int -> subroutine
(** The {!Opt_obdd} subroutines, re-exported. *)

val minimize :
  ?kind:Ovo_core.Compact.kind ->
  ctx:Qctx.t ->
  subroutine ->
  Ovo_boolfun.Truthtable.t array ->
  Ovo_core.Shared.result * float
(** Jointly minimise the shared diagram of the given functions; returns
    the result and the modeled quantum cost. *)

val minimize_mtables :
  ?kind:Ovo_core.Compact.kind ->
  ctx:Qctx.t ->
  subroutine ->
  Ovo_boolfun.Mtable.t array ->
  Ovo_core.Shared.result * float
