(* The paper's evaluation (Sec. 6): Fig. 8's topologies, the line
   figures 9-16 and Fig. 17's grids (the table in Experiments.figures),
   Bechamel micro-benchmarks of each algorithm at the default scenario,
   and the design ablations.  Absolute values depend on the synthetic
   substrate (DESIGN.md §2); EXPERIMENTS.md records the paper-shape
   expectations.  Set TDMD_BENCH_CSV=<dir> to also dump each line
   figure's series as CSV. *)

open Tdmd_sim

let csv_dir = Sys.getenv_opt "TDMD_BENCH_CSV"

let write_csv (result : Experiments.result) =
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (result.Experiments.fig_id ^ ".csv") in
      let oc = open_out path in
      output_string oc (Report.result_csv result);
      close_out oc;
      Printf.printf "(csv written to %s)\n" path)
    csv_dir

(* The paper's Fig. 8: what the simulation topologies look like. *)
let fig8 () =
  let rng = Tdmd_prelude.Rng.create 8000 in
  let ark = Tdmd_topo.Ark.generate rng ~n:64 in
  print_endline "== fig8(a): synthetic Ark infrastructure ==\n";
  print_string (Tdmd_topo.Topo_stats.render (Tdmd_topo.Topo_stats.compute ark.Tdmd_topo.Ark.graph));
  let tree = Tdmd_topo.Topo_tree.resize rng (Tdmd_topo.Ark.tree_of rng ark) 22 in
  print_endline "\n== fig8(b): tree topology (22 vertices, root = hub) ==\n";
  print_string
    (Tdmd_topo.Topo_stats.render
       (Tdmd_topo.Topo_stats.compute (Tdmd_tree.Rooted_tree.to_digraph tree)));
  let general, dests = Tdmd_topo.Ark.general_of rng ark ~size:30 in
  Printf.printf "\n== fig8(c): general topology (30 vertices, %d red destinations) ==\n\n"
    (List.length dests);
  print_string (Tdmd_topo.Topo_stats.render (Tdmd_topo.Topo_stats.compute general))

let targets =
  ("fig8", fig8)
  :: List.map
       (fun (id, figure) ->
         ( id,
           fun () ->
             let fig = figure () in
             print_string (Report.render_figure fig);
             match fig with
             | Experiments.Line r -> write_csv r
             | Experiments.Grids _ -> () ))
       Experiments.figures

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per algorithm              *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let rng = Tdmd_prelude.Rng.create 4242 in
  let tree_inst = Scenario.build_tree rng Scenario.default_tree in
  let tree_general = Tdmd.Instance.Tree.to_general tree_inst in
  let general_inst = Scenario.build_general rng Scenario.default_general in
  let kt = Scenario.default_tree.Scenario.k in
  let kg = Scenario.default_general.Scenario.k in
  let tests =
    [
      Test.make ~name:"GTP (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Gtp.run ~budget:kt tree_general)));
      Test.make ~name:"GTP-CELF (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Gtp.run_celf ~budget:kt tree_general)));
      Test.make ~name:"HAT (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Hat.run ~k:kt tree_inst)));
      Test.make ~name:"DP (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Dp.solve ~k:kt tree_inst)));
      Test.make ~name:"Scaled-DP theta=4 (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Scaled_dp.solve ~k:kt ~theta:4 tree_inst)));
      Test.make ~name:"Best-effort (tree)"
        (Staged.stage (fun () ->
             ignore (Tdmd.Baselines.best_effort ~k:kt tree_general)));
      Test.make ~name:"GTP (general)"
        (Staged.stage (fun () -> ignore (Tdmd.Gtp.run ~budget:kg general_inst)));
      Test.make ~name:"Best-effort (general)"
        (Staged.stage (fun () ->
             ignore (Tdmd.Baselines.best_effort ~k:kg general_inst)));
      Test.make ~name:"Random (general)"
        (Staged.stage (fun () ->
             ignore (Tdmd.Baselines.random (Tdmd_prelude.Rng.create 7) ~k:kg general_inst)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  print_endline "== micro-benchmarks (Bechamel, monotonic clock) ==\n";
  let t = Tdmd_prelude.Table.create [ "algorithm"; "time per run" ] in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | _ -> nan
          in
          let cell =
            if Float.is_nan ns then "n/a"
            else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else Printf.sprintf "%.1f us" (ns /. 1e3)
          in
          Tdmd_prelude.Table.add_row t [ name; cell ])
        results)
    tests;
  Tdmd_prelude.Table.print t

let ablation () = print_string (Report.render_ablation (Experiments.ablation ()))
