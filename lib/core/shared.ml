type result = {
  mincost : int;
  size : int;
  order : int array;
  state : Compact.state;
}

let roots (st : Compact.state) =
  if not (Compact.is_complete st) then
    invalid_arg "Shared.roots: state not complete";
  Array.map (fun table -> table.(0)) st.tables

let diagrams (st : Compact.state) =
  if not (Compact.is_complete st) then
    invalid_arg "Shared.diagrams: state not complete";
  let nodes = Compact.nodes st and order = Array.of_list (Compact.order st) in
  Array.map
    (fun root ->
      Diagram.of_parts ~kind:st.kind ~n:st.n ~num_terminals:st.num_terminals
        ~order ~nodes ~root)
    (roots st)

let check (st : Compact.state) mts =
  Array.length mts = Array.length st.tables
  && Array.for_all2 Diagram.check (diagrams st) mts

let of_state (st : Compact.state) =
  let seen = Array.make st.num_terminals false in
  let mark u = if u < st.num_terminals then seen.(u) <- true in
  Array.iter mark (roots st);
  Array.iter
    (fun (nd : Compact.node) ->
      mark nd.lo;
      mark nd.hi)
    (Compact.nodes st);
  let terminals = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen in
  {
    mincost = st.mincost;
    size = st.mincost + terminals;
    order = Array.of_list (Compact.order st);
    state = st;
  }

let minimize_mtables ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd)
    ?engine ?cancel ?metrics ?membudget ?prune mts =
  let base = Compact.initial_shared kind mts in
  Ovo_obs.Trace.with_span trace ~cat:"fs"
    ~args:(fun () ->
      [
        ("n", Ovo_obs.Json.Int base.n);
        ("roots", Ovo_obs.Json.Int (Array.length mts));
      ])
    "shared.minimize"
    (fun () ->
      let r =
        of_state
          (Fs_star.complete ~trace ?engine ?cancel ?metrics ?membudget ?prune
             ~base (Compact.free base))
      in
      Option.iter (fun b -> Bound.check_final b r.mincost) prune;
      r)

let minimize ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune tts =
  minimize_mtables ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune
    (Array.map Ovo_boolfun.Mtable.of_truthtable tts)

let to_dot (st : Compact.state) =
  let roots = roots st in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph shared {\n  rankdir=TB;\n";
  for t = 0 to st.num_terminals - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [shape=box,label=\"%d\"];\n" t t)
  done;
  Array.iteri
    (fun i (nd : Compact.node) ->
      let id = i + st.num_terminals in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"x%d\"];\n" id nd.var);
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [style=dashed];\n" id nd.lo);
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id nd.hi))
    (Compact.nodes st);
  Array.iteri
    (fun i root ->
      Buffer.add_string buf
        (Printf.sprintf "  r%d [shape=plaintext,label=\"f%d\"];\n" i i);
      Buffer.add_string buf (Printf.sprintf "  r%d -> n%d;\n" i root))
    roots;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
