(* Bench targets, run by name or all in table order:

     dune exec bench/main.exe                       # every target
     dune exec bench/main.exe fig9                  # one target
     dune exec bench/main.exe -- --quick chaos      # smoke size

   fig8..fig17, micro and ablation regenerate the paper's evaluation
   (Sec. 6).  The others write JSON-lines records: solvers ->
   BENCH_solvers.json, serve -> BENCH_serve.json, recover ->
   BENCH_recover.json, churn-timeline (budget Pareto) ->
   BENCH_churn.json, portfolio (quality vs budget) ->
   BENCH_portfolio.json and chaos (fault soak) -> BENCH_chaos.json.
   churn-timeline, portfolio, serve, recover and chaos also check
   themselves and exit non-zero on a failed check.  --quick shrinks
   serve, recover and chaos to smoke size and names every record
   BENCH_<name>.quick.json.  TDMD_BENCH_CSV=<dir> also dumps each line
   figure as CSV; TDMD_CHAOS_SEED=<n> pins chaos to one seed. *)

let targets =
  Figures.targets
  @ [
      ("micro", Figures.micro);
      ("solvers", Solver_sweep.run);
      ("serve", Serve.run);
      ("recover", Recover.run);
      ("churn-timeline", Churn.run);
      ("portfolio", Portfolio_curve.run);
      ("chaos", Chaos.run);
      ("ablation", Figures.ablation);
    ]

let () =
  match List.filter (( <> ) "--quick") (List.tl (Array.to_list Sys.argv)) with
  | [] ->
    List.iter
      (fun (_, run) ->
        print_newline ();
        run ())
      targets
  | [ name ] when List.mem_assoc name targets -> (List.assoc name targets) ()
  | _ ->
    Printf.eprintf "usage: main.exe [--quick] [%s]\n"
      (String.concat "|" (List.map fst targets));
    exit 1
