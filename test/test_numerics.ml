module M = Ovo_numerics.Maths
module S = Ovo_numerics.Solver
module E = Ovo_numerics.Exponents
module Tb = Ovo_numerics.Tables
module Pr = Ovo_numerics.Predict
module P = Ovo_quantum.Params

let check_float = Alcotest.(check (float 1e-9))

let unit_tests =
  [
    Helpers.case "entropy endpoints and symmetry" (fun () ->
        check_float "H(0)" 0. (M.entropy 0.);
        check_float "H(1)" 0. (M.entropy 1.);
        check_float "H(1/2)" 1. (M.entropy 0.5);
        check_float "symmetry" (M.entropy 0.3) (M.entropy 0.7);
        Alcotest.check_raises "domain" (Invalid_argument "Maths.entropy")
          (fun () -> ignore (M.entropy 1.5)));
    Helpers.case "log2_binomial exact small values" (fun () ->
        check_float "C(5,2)" (M.log2 10.) (M.log2_binomial 5 2);
        check_float "C(10,0)" 0. (M.log2_binomial 10 0);
        check_float "C(10,10)" 0. (M.log2_binomial 10 10);
        Alcotest.(check (float 1e-6)) "C(20,10)" 184756. (M.binomial 20 10));
    Helpers.case "entropy upper-bounds binomials (paper prelim bound)"
      (fun () ->
        (* C(n,k) <= 2^(n·H(k/n)) *)
        for n = 1 to 30 do
          for k = 0 to n do
            Helpers.check_bool "bound" true
              (M.log2_binomial n k
              <= (float_of_int n *. M.entropy (float_of_int k /. float_of_int n))
                 +. 1e-9)
          done
        done);
    Helpers.case "bisection solves sqrt(2)" (fun () ->
        let r = S.bisect ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. () in
        Alcotest.(check (float 1e-10)) "sqrt2" (sqrt 2.) r);
    Helpers.case "bisection requires a sign change" (fun () ->
        Alcotest.check_raises "no change"
          (Invalid_argument "Solver.bisect: no sign change") (fun () ->
            ignore (S.bisect ~f:(fun x -> (x *. x) +. 1.) ~lo:0. ~hi:1. ())));
    Helpers.case "solve scans for a bracket" (fun () ->
        let r =
          S.solve ~f:(fun x -> sin x) ~lo:2. ~hi:4. ~steps:100 ()
        in
        Alcotest.(check (float 1e-9)) "pi" Float.pi r);
    Helpers.case "solve_offset finds tiny roots" (fun () ->
        let r =
          S.solve_offset ~f:(fun x -> x -. 1e-7) ~origin:0. ~max_offset:1.
            ~steps:1000 ()
        in
        Alcotest.(check (float 1e-12)) "tiny" 1e-7 r);
    Helpers.case "g and f definitions" (fun () ->
        (* g_3(x,y) = (1-y) + (y-x)·log2 3 *)
        check_float "g" (0.5 +. (0.2 *. M.log2 3.)) (E.g ~gamma:3. 0.3 0.5);
        (* f adds y/2·H(x/y) *)
        check_float "f"
          (E.g ~gamma:3. 0.25 0.5 +. (0.25 *. M.entropy 0.5))
          (E.f ~gamma:3. 0.25 0.5));
    Helpers.case "gamma0 matches Sec 3.1 (2.98581)" (fun () ->
        let alpha, gamma = E.gamma0 () in
        Alcotest.(check (float 1e-5)) "alpha" 0.269577 alpha;
        Alcotest.(check (float 1e-4)) "gamma" 2.98581 gamma);
    Helpers.case "gamma1 matches Sec 3.1 (2.97625)" (fun () ->
        let alpha, gamma = E.gamma1 () in
        Alcotest.(check (float 1e-5)) "alpha" 0.274863 alpha;
        Alcotest.(check (float 1e-4)) "gamma" 2.97625 gamma);
    Helpers.case "Table 1 reproduces all published digits" (fun () ->
        List.iteri
          (fun i row ->
            let k, gamma, alpha = P.table1.(i) in
            Helpers.check_int "k" k row.Tb.k;
            Alcotest.(check (float 1e-4))
              (Printf.sprintf "gamma_%d" k)
              gamma row.Tb.gamma_out;
            Array.iteri
              (fun j a ->
                Alcotest.(check (float 2e-5))
                  (Printf.sprintf "alpha_%d_%d" k (j + 1))
                  a row.Tb.alpha.(j))
              alpha)
          (Tb.table1 ()));
    Helpers.case "Table 2 reproduces all published digits" (fun () ->
        List.iteri
          (fun i row ->
            let gamma_in, beta, alpha = P.table2.(i) in
            Alcotest.(check (float 1e-4))
              (Printf.sprintf "gamma_in_%d" i)
              gamma_in row.Tb.gamma_in;
            Alcotest.(check (float 1e-4))
              (Printf.sprintf "beta_%d" i)
              beta row.Tb.gamma_out;
            Array.iteri
              (fun j a ->
                Alcotest.(check (float 2e-5))
                  (Printf.sprintf "t2_alpha_%d_%d" i (j + 1))
                  a row.Tb.alpha.(j))
              alpha)
          (Tb.table2 ()));
    Helpers.case "Table 2 converges to 2.77286 (Theorem 13)" (fun () ->
        let rows = Tb.table2 () in
        let last = List.nth rows (List.length rows - 1) in
        Alcotest.(check (float 1e-4)) "final" P.final_gamma last.Tb.gamma_out);
    Helpers.case "k beyond 6 brings only negligible improvement" (fun () ->
        (* the paper stops at k = 6 because gamma_7 is indistinguishable
           at the printed precision *)
        let g6 = (Tb.solve ~gamma:3. ~k:6).Tb.gamma_out in
        let g7 = (Tb.solve ~gamma:3. ~k:7).Tb.gamma_out in
        Helpers.check_bool "monotone" true (g7 <= g6 +. 1e-9);
        Helpers.check_bool "negligible" true (g6 -. g7 < 1e-4));
    Helpers.case "chain recurrence closes at the published seed" (fun () ->
        (* Appendix B: k=2 with alpha = (0.192755, 0.334571) gives
           alpha_3 = 1 *)
        let alphas = Tb.chain ~gamma:3. ~k:2 0.192755 0.334571 in
        Alcotest.(check (float 1e-4)) "closure" 1. alphas.(2));
    Helpers.case "predictors: exact closed forms" (fun () ->
        check_float "fs n=1" 1. (Pr.fs_cells 1);
        check_float "fs n=4" (4. *. 27.) (Pr.fs_cells 4);
        check_float "brute n=3" (6. *. 7.) (Pr.brute_force_cells 3);
        check_float "eval n=5" 31. (Pr.eval_order_cells 5);
        check_float "5!" 120. (Pr.factorial 5));
    Helpers.case "predicted FS cells match the measured counter" (fun () ->
        for n = 1 to 7 do
          let tt = Ovo_boolfun.Truthtable.random (Helpers.rng n) n in
          let metrics = Ovo_core.Metrics.create () in
          let _ = Ovo_core.Fs.run ~metrics tt in
          let measured = metrics.Ovo_core.Metrics.table_cells in
          check_float
            (Printf.sprintf "n=%d" n)
            (Pr.fs_cells n)
            (float_of_int measured)
        done);
    Helpers.case "regression slope recovers an exact exponential" (fun () ->
        let points = List.init 8 (fun i -> (i + 3, Float.pow 3. (float_of_int (i + 3)))) in
        Alcotest.(check (float 1e-9)) "slope" (M.log2 3.)
          (Pr.log2_cost_per_var points));
  ]

let props =
  [
    QCheck.Test.make ~name:"entropy is concave-ish: max at 1/2" ~count:200
      QCheck.(float_range 0. 1.)
      (fun x -> M.entropy x <= 1. +. 1e-12);
    QCheck.Test.make ~name:"pow2 . log2 identity" ~count:200
      QCheck.(float_range 0.001 1000.)
      (fun x -> Float.abs (M.pow2 (M.log2 x) -. x) < 1e-9 *. x);
    QCheck.Test.make ~name:"binomial symmetry" ~count:100
      QCheck.(pair (int_range 0 40) (int_range 0 40))
      (fun (n, k) ->
        QCheck.assume (k <= n);
        Float.abs (M.log2_binomial n k -. M.log2_binomial n (n - k)) < 1e-9);
  ]

let () =
  Alcotest.run "numerics"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
