(* Argument parsing and workload dispatch shared by ovobench.exe (the
   untraced run) and ovotrace.exe (the traced run).  Prints the process's
   measurements as one JSON line; run.py turns it into metrics.  The
   untraced run also times the workload's set-up (Report.sample_setup). *)

let main ~traced =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and scratch = ref "" and trace_file = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--scratch", Arg.Set_string scratch, "DIR spill directory and socket");
      ("--trace-file", Arg.Set_string trace_file, "FILE where spans go") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    (Sys.argv.(0)
    ^ " --workload NAME --seed N --seconds S --scratch DIR [--trace-file FILE]");
  if !scratch = "" then failwith "--scratch is required";
  let seed = !seed and seconds = !seconds and scratch = !scratch in
  let trace = Option.is_some traced in
  let setup, run =
    match !workload with
    | "exact" ->
        ( (fun () ->
            ignore (Exact.instances seed);
            ignore),
          fun () -> Exact.run ~seed ~seconds ~scratch ~traced )
    | "serve-mixed" ->
        ( (fun () -> Serve_load.setup ~seed ~scratch),
          fun () -> Serve_load.run ~seed ~seconds ~scratch ~trace )
    | w -> failwith ("unknown workload " ^ w)
  in
  if not trace then Report.setup := Some setup;
  run ();
  Report.set "check.theorem5_solves" (float_of_int !Report.theorem5_solves);
  if !trace_file <> "" && !Report.spans <> [] then
    Report.write_trace !trace_file;
  Report.emit ()
