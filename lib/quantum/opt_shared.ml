module Compact = Ovo_core.Compact

type subroutine = Opt_obdd.subroutine

let name = Opt_obdd.name
let fs_star = Opt_obdd.fs_star
let simple_split = Opt_obdd.simple_split
let opt_obdd = Opt_obdd.opt_obdd
let theorem10 = Opt_obdd.theorem10
let tower = Opt_obdd.tower

let minimize_mtables ?(kind = Compact.Bdd) ~ctx sub mts =
  let base = Compact.initial_shared kind mts in
  let state, cost = Opt_obdd.apply sub ctx base (Compact.free base) in
  (Ovo_core.Shared.of_state state, cost)

let minimize ?kind ~ctx sub tts =
  minimize_mtables ?kind ~ctx sub
    (Array.map Ovo_boolfun.Mtable.of_truthtable tts)
