(* The untraced benchmark process: it reaches the program only through
   Fs.run, Seed.bound, Membudget.create with Spill.sink, and the
   Ovo_serve server, client and protocol.

     ovobench.exe --workload exact --seed 1 --seconds 50 --scratch DIR *)

let () = Cli.main ~traced:None
