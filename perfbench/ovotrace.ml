(* The traced benchmark process: interleaves untraced passes with traced
   ones, which time the DP layers and record spans into --trace-file.

     ovotrace.exe --workload exact --seed 1 --seconds 50 --scratch DIR \
       --trace-file FILE *)

let () = Cli.main ~traced:(Some Traced.pass)
