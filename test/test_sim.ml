open Tdmd_prelude
module Sc = Tdmd_sim.Scenario
module Runner = Tdmd_sim.Runner

let test_build_tree_scenario () =
  let rng = Rng.create 51 in
  let inst = Sc.build_tree rng Sc.default_tree in
  let tree = inst.Tdmd.Instance.Tree.tree in
  Alcotest.(check int) "tree size" Sc.default_tree.Sc.size
    (Tdmd_tree.Rooted_tree.size tree);
  Alcotest.(check bool) "flows exist" true
    (Array.length inst.Tdmd.Instance.Tree.flows > 0);
  Alcotest.(check (float 1e-9)) "lambda" Sc.default_tree.Sc.lambda
    inst.Tdmd.Instance.Tree.lambda

let test_build_general_scenario () =
  let rng = Rng.create 52 in
  let inst = Sc.build_general rng Sc.default_general in
  Alcotest.(check int) "size" Sc.default_general.Sc.size
    (Tdmd.Instance.vertex_count inst);
  Alcotest.(check bool) "flows exist" true (Tdmd.Instance.flow_count inst > 0);
  (* Flows were validated by Instance.make; instance is connected. *)
  Alcotest.(check bool) "connected" true
    (Fixtures.is_connected_undirected inst.Tdmd.Instance.graph)

let test_scenarios_deterministic () =
  let build seed =
    let rng = Rng.create seed in
    let inst = Sc.build_tree rng { Sc.default_tree with Sc.size = 15 } in
    ( Tdmd_tree.Rooted_tree.size inst.Tdmd.Instance.Tree.tree,
      Array.length inst.Tdmd.Instance.Tree.flows,
      Tdmd.Instance.total_path_volume (Tdmd.Instance.Tree.to_general inst) )
  in
  Alcotest.(check (triple int int int)) "same seed, same instance" (build 7) (build 7);
  let a = build 7 and b = build 8 in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_runner_repeat () =
  let calls = ref 0 in
  let point =
    Runner.repeat ~seed:1 ~reps:5 ~x:2.0 (fun rng ->
        incr calls;
        let v = Rng.float rng 1.0 in
        {
          Runner.bandwidth = 10.0 +. v;
          seconds = 0.001;
          feasible = true;
          telemetry = Tdmd_obs.Telemetry.create ();
        })
  in
  Alcotest.(check int) "five runs" 5 !calls;
  Alcotest.(check int) "five observations" 5 point.Runner.bandwidth.Stats.n;
  Alcotest.(check (float 1e-9)) "x" 2.0 point.Runner.x;
  Alcotest.(check int) "none infeasible" 0 point.Runner.infeasible_runs;
  Alcotest.(check bool) "mean in range" true
    (point.Runner.bandwidth.Stats.mean >= 10.0
    && point.Runner.bandwidth.Stats.mean <= 11.0)

let test_runner_drops_infeasible () =
  let n = ref 0 in
  let point =
    Runner.repeat ~seed:1 ~reps:6 ~x:0.0 (fun _ ->
        incr n;
        let feasible = !n mod 2 = 0 in
        {
          Runner.bandwidth = (if feasible then 5.0 else 99.0);
          seconds = 0.0;
          feasible;
          telemetry = Tdmd_obs.Telemetry.create ();
        })
  in
  Alcotest.(check int) "three dropped" 3 point.Runner.infeasible_runs;
  Alcotest.(check (float 1e-9)) "mean over feasible only" 5.0
    point.Runner.bandwidth.Stats.mean

let test_measure () =
  let obs = Runner.measure (fun () -> 17) (fun x -> (float_of_int x, true)) in
  Alcotest.(check (float 1e-9)) "bandwidth extracted" 17.0 obs.Runner.bandwidth;
  Alcotest.(check bool) "feasible" true obs.Runner.feasible;
  Alcotest.(check bool) "time sane" true (obs.Runner.seconds >= 0.0)

let test_joint_parallel_identical () =
  (* Bandwidth summaries must be bit-identical whether repetitions run
     sequentially or across domains (timing obviously differs). *)
  let run domains =
    Runner.joint ~domains ~seed:99 ~reps:6 ~x:1.0
      ~build:(fun rng -> Sc.build_tree rng { Sc.default_tree with Sc.size = 14 })
      ~algos:
        [
          ( "gtp",
            fun inst _ ->
              Runner.measure
                (fun () -> Tdmd.Gtp.run ~budget:4 (Tdmd.Instance.Tree.to_general inst))
                (fun r -> (r.Tdmd.Solver_intf.bandwidth, r.Tdmd.Solver_intf.feasible)) );
          ( "hat",
            fun inst _ ->
              Runner.measure
                (fun () -> Tdmd.Hat.run ~k:4 inst)
                (fun r -> (r.Tdmd.Solver_intf.bandwidth, r.Tdmd.Solver_intf.feasible)) );
        ]
  in
  let a = run 1 and b = run 3 in
  Alcotest.(check int) "same redraws" a.Runner.redraws b.Runner.redraws;
  List.iter2
    (fun (n1, (p1 : Runner.point)) (n2, (p2 : Runner.point)) ->
      Alcotest.(check string) "algo order" n1 n2;
      Alcotest.(check (float 0.0)) "identical mean"
        p1.Runner.bandwidth.Stats.mean p2.Runner.bandwidth.Stats.mean;
      Alcotest.(check (float 0.0)) "identical stddev"
        p1.Runner.bandwidth.Stats.stddev p2.Runner.bandwidth.Stats.stddev)
    a.Runner.by_algo b.Runner.by_algo

let suite =
  [
    Alcotest.test_case "runner: parallel joint = sequential joint" `Quick
      test_joint_parallel_identical;
    Alcotest.test_case "scenario: tree builder" `Quick test_build_tree_scenario;
    Alcotest.test_case "scenario: general builder" `Quick test_build_general_scenario;
    Alcotest.test_case "scenario: determinism" `Quick test_scenarios_deterministic;
    Alcotest.test_case "runner: repeat + summaries" `Quick test_runner_repeat;
    Alcotest.test_case "runner: drops infeasible runs" `Quick
      test_runner_drops_infeasible;
    Alcotest.test_case "runner: measure" `Quick test_measure;
  ]
