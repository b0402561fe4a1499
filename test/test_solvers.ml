(* Cross-checks between the solvers on random instances: the DP is
   certified optimal against brute force, the heuristics are bounded by
   the optimum, and GTP's submodular guarantee (Theorem 3) is verified
   against the brute-force maximum decrement at equal k. *)

open Tdmd_prelude
module P = Tdmd.Placement

let volume inst = float_of_int (Tdmd.Instance.total_path_volume inst)

(* ------------------------------------------------------------------ *)
(* DP vs brute force                                                   *)
(* ------------------------------------------------------------------ *)

let prop_dp_optimal =
  QCheck.Test.make ~name:"DP = brute force on random trees" ~count:60
    QCheck.(triple (int_bound 100000) (int_range 2 11) (int_range 1 4))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:4 ~lambda:0.5 in
      let dp = Tdmd.Dp.solve ~k inst in
      let brute = Tdmd.Brute.solve ~k (Tdmd.Instance.Tree.to_general inst) in
      (match (dp.Tdmd.Solver_intf.feasible, brute.Tdmd.Solver_intf.feasible) with
      | true, true ->
        dp.Tdmd.Solver_intf.volume = brute.Tdmd.Solver_intf.volume
        && Float.equal dp.Tdmd.Solver_intf.bandwidth brute.Tdmd.Solver_intf.bandwidth
      | a, b -> a = b))

let prop_dp_placement_consistent =
  QCheck.Test.make ~name:"DP traceback placement evaluates to the DP value"
    ~count:60
    QCheck.(triple (int_bound 100000) (int_range 2 14) (int_range 1 5))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:5 ~lambda:0.3 in
      let dp = Tdmd.Dp.solve ~k inst in
      (not dp.Tdmd.Solver_intf.feasible)
      || begin
           let general = Tdmd.Instance.Tree.to_general inst in
           P.size dp.Tdmd.Solver_intf.placement <= k
           && Tdmd.Allocation.is_feasible general dp.Tdmd.Solver_intf.placement
           && Tdmd.Bandwidth.diminished_volume general dp.Tdmd.Solver_intf.placement
              = dp.Tdmd.Solver_intf.volume
           && Float.equal
                (Tdmd.Bandwidth.total general dp.Tdmd.Solver_intf.placement)
                dp.Tdmd.Solver_intf.bandwidth
         end)

let prop_dp_monotone_in_k =
  QCheck.Test.make ~name:"DP value is non-increasing in k" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 3 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:4 ~lambda:0.6 in
      let values =
        List.map
          (fun k -> (Tdmd.Dp.solve ~k inst).Tdmd.Solver_intf.bandwidth)
          [ 1; 2; 3; 4 ]
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing values)

let test_dp_lambda_extremes () =
  let rng = Rng.create 41 in
  let inst0 = Fixtures.random_tree_instance rng ~n:10 ~max_rate:4 ~lambda:0.0 in
  (* lambda = 1: middleboxes change nothing; every placement costs the
     full volume. *)
  let tree = inst0.Tdmd.Instance.Tree.tree in
  let flows = Array.to_list inst0.Tdmd.Instance.Tree.flows in
  let inst1 = Tdmd.Instance.Tree.make ~tree ~flows ~lambda:1.0 in
  let dp1 = Tdmd.Dp.solve ~k:3 inst1 in
  Alcotest.(check (float 1e-9)) "lambda=1 keeps full volume"
    (volume (Tdmd.Instance.Tree.to_general inst1))
    dp1.Tdmd.Solver_intf.bandwidth;
  (* lambda = 0 with a box on every leaf: zero bandwidth. *)
  let leaves =
    List.filter
      (fun v -> v <> Tdmd_tree.Rooted_tree.root tree)
      (Tdmd_tree.Rooted_tree.leaves tree)
  in
  let dp0 = Tdmd.Dp.solve ~k:(List.length leaves) inst0 in
  Alcotest.(check (float 1e-9)) "lambda=0, boxes at sources" 0.0
    dp0.Tdmd.Solver_intf.bandwidth

let test_dp_k0_infeasible () =
  let rng = Rng.create 42 in
  let inst = Fixtures.random_tree_instance rng ~n:8 ~max_rate:3 ~lambda:0.5 in
  let r = Tdmd.Dp.solve ~k:0 inst in
  Alcotest.(check bool) "k=0 infeasible" false r.Tdmd.Solver_intf.feasible

let test_dp_single_vertex () =
  let tree = Fixtures.path_tree 1 in
  let inst = Tdmd.Instance.Tree.make ~tree ~flows:[] ~lambda:0.5 in
  let r = Tdmd.Dp.solve ~k:1 inst in
  Alcotest.(check bool) "trivially feasible" true r.Tdmd.Solver_intf.feasible;
  Alcotest.(check (float 0.0)) "zero bandwidth" 0.0 r.Tdmd.Solver_intf.bandwidth

(* The subset guard must refuse before enumerating anything.  Here
   Σ_{j ≤ 25} C(150, j) ≈ 10²⁹ wraps a native int, which once let the
   guard pass and the enumeration run without end. *)
let test_brute_refuses_large () =
  let inst =
    Fixtures.random_general_instance (Rng.create 9150) ~n:150 ~flows:20 ~max_rate:5
      ~lambda:0.5
  in
  Alcotest.check_raises "150 vertices, k = 25"
    (Invalid_argument "Brute.solve: instance too large")
    (fun () -> ignore (Tdmd.Brute.solve ~k:25 inst))

(* ------------------------------------------------------------------ *)
(* HAT and GTP against the optimum                                     *)
(* ------------------------------------------------------------------ *)

let prop_hat_bounded_by_dp =
  QCheck.Test.make ~name:"DP <= HAT <= unprocessed volume" ~count:60
    QCheck.(triple (int_bound 100000) (int_range 2 14) (int_range 1 6))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:5 ~lambda:0.5 in
      let dp = Tdmd.Dp.solve ~k inst in
      let hat = Tdmd.Hat.run ~k inst in
      hat.Tdmd.Solver_intf.feasible
      && P.size hat.Tdmd.Solver_intf.placement <= max k 1
      && dp.Tdmd.Solver_intf.bandwidth <= hat.Tdmd.Solver_intf.bandwidth +. 1e-6
      && hat.Tdmd.Solver_intf.bandwidth
         <= volume (Tdmd.Instance.Tree.to_general inst) +. 1e-6)

let prop_gtp_bounded_by_dp_on_trees =
  QCheck.Test.make ~name:"DP <= GTP on trees; GTP feasible" ~count:60
    QCheck.(triple (int_bound 100000) (int_range 2 12) (int_range 1 5))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:4 ~lambda:0.5 in
      let general = Tdmd.Instance.Tree.to_general inst in
      let dp = Tdmd.Dp.solve ~k inst in
      let gtp = Tdmd.Gtp.run ~budget:k general in
      (* k >= 1 on a rooted tree is always feasible (box at the root). *)
      gtp.Tdmd.Solver_intf.feasible
      && dp.Tdmd.Solver_intf.bandwidth <= gtp.Tdmd.Solver_intf.bandwidth +. 1e-6)

let prop_gtp_approximation_ratio =
  QCheck.Test.make
    ~name:"theorem 3: GTP decrement >= (1 - 1/e) * optimal decrement" ~count:40
    QCheck.(triple (int_bound 100000) (int_range 3 10) (int_range 1 3))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:4 ~lambda:0.5 in
      (* Theorem 3 is about the pure greedy prefix (no feasibility
         fix-up): run the submodular greedy directly on the decrement
         oracle and compare against the exact k-constrained maximum. *)
      let greedy = Tdmd.Gtp.greedy ~k inst in
      let greedy_decrement =
        Reference.decrement inst (P.of_list greedy.Tdmd.Gtp.chosen)
      in
      let best = ref 0.0 in
      let rec enum start chosen size =
        let d = Reference.decrement inst (P.of_list chosen) in
        if d > !best then best := d;
        if size < k then
          for v = start to n - 1 do
            enum (v + 1) (v :: chosen) (size + 1)
          done
      in
      enum 0 [] 0;
      greedy_decrement >= ((1.0 -. exp (-1.0)) *. !best) -. 1e-6)

let prop_celf_gtp_equal =
  QCheck.Test.make ~name:"GTP and CELF-GTP produce identical deployments" ~count:40
    QCheck.(triple (int_bound 100000) (int_range 3 12) (int_range 1 5))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:5 ~lambda:0.4 in
      let a = Tdmd.Gtp.run ~budget:k inst in
      let b = Tdmd.Gtp.run_celf ~budget:k inst in
      (* The oracle is integer-valued, so the two greedy variants agree
         exactly, not just within float noise. *)
      P.to_list a.Tdmd.Solver_intf.placement = P.to_list b.Tdmd.Solver_intf.placement
      && Fixtures.count b "oracle_calls" <= Fixtures.count a "oracle_calls" + n)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let prop_baselines_sandwiched =
  QCheck.Test.make ~name:"baselines lie between optimum and unprocessed volume"
    ~count:40
    QCheck.(triple (int_bound 100000) (int_range 2 11) (int_range 1 4))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:4 ~lambda:0.5 in
      let general = Tdmd.Instance.Tree.to_general inst in
      let opt = (Tdmd.Dp.solve ~k inst).Tdmd.Solver_intf.bandwidth in
      let rand = Tdmd.Baselines.random rng ~k general in
      let be = Tdmd.Baselines.best_effort ~k general in
      let vol = volume general in
      (* Infeasible plans may undercut the feasible optimum (they skip
         serving some flows), so the lower bound only applies to
         feasible ones; the volume upper bound is universal. *)
      let sandwiched (r : Tdmd.Solver_intf.outcome) =
        r.Tdmd.Solver_intf.bandwidth <= vol +. 1e-6
        && ((not r.Tdmd.Solver_intf.feasible)
           || opt <= r.Tdmd.Solver_intf.bandwidth +. 1e-6)
      in
      sandwiched rand && sandwiched be)

let test_random_respects_k () =
  let rng = Rng.create 43 in
  let inst = Fixtures.fig1_instance () in
  for k = 2 to 5 do
    let r = Tdmd.Baselines.random rng ~k inst in
    Alcotest.(check bool) "size <= k" true (P.size r.Tdmd.Solver_intf.placement <= k)
  done

let test_best_effort_deterministic () =
  let inst = Fixtures.fig1_instance () in
  let a = Tdmd.Baselines.best_effort ~k:3 inst in
  let b = Tdmd.Baselines.best_effort ~k:3 inst in
  Alcotest.(check (list int)) "same plan"
    (P.to_list a.Tdmd.Solver_intf.placement)
    (P.to_list b.Tdmd.Solver_intf.placement)

let test_gtp_beats_best_effort_eventually () =
  (* On Fig. 1 with k = 3 the adaptive greedy reaches the optimum 8;
     non-adaptive best-effort ranks by singleton decrement
     (v5:4, v3:3, v6:3) and lands on a worse plan. *)
  let inst = Fixtures.fig1_instance () in
  let gtp = Tdmd.Gtp.run ~budget:3 inst in
  let be = Tdmd.Baselines.best_effort ~k:3 inst in
  Alcotest.(check bool) "gtp <= best-effort" true
    (gtp.Tdmd.Solver_intf.bandwidth <= be.Tdmd.Solver_intf.bandwidth +. 1e-9)

(* GTP's derived k (Alg. 1 run to feasibility) is sandwiched between
   the exact minimum cover and the ln(n)-greedy bound. *)
let prop_derived_k_bounds =
  QCheck.Test.make ~name:"derived k between exact minimum and greedy cover"
    ~count:30
    QCheck.(pair (int_bound 100000) (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:4 ~lambda:0.5 in
      let dk = Fixtures.derived_k inst in
      let exact = Feasibility.min_middleboxes inst in
      let greedy_size =
        match Feasibility.greedy_cover inst with
        | Some c -> P.size c
        | None -> max_int
      in
      (* Alg. 1 favours decrement over coverage, so it can use more
         boxes than the pure covering greedy, but never fewer than the
         exact minimum and never more than the vertex count. *)
      exact <= dk && dk <= n && exact <= greedy_size
      && Tdmd.Allocation.is_feasible inst
           (Tdmd.Gtp.run ~budget:dk inst).Tdmd.Solver_intf.placement)

(* HAT performs exactly |initial leaves| - |final placement| merges. *)
let prop_hat_merge_count =
  QCheck.Test.make ~name:"HAT merge count brackets the placement shrinkage" ~count:40
    QCheck.(triple (int_bound 100000) (int_range 2 16) (int_range 1 8))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:4 ~lambda:0.5 in
      let tree = inst.Tdmd.Instance.Tree.tree in
      let leaves = List.length (Tdmd_tree.Rooted_tree.leaves tree) in
      let r = Tdmd.Hat.run ~k inst in
      let dropped = leaves - P.size r.Tdmd.Solver_intf.placement in
      (* Each merge removes two boxes and adds their LCA, which may
         itself already be deployed: the placement shrinks by one or
         two per merge. *)
      Fixtures.count r "merges" <= dropped
      && dropped <= 2 * Fixtures.count r "merges"
      && P.size r.Tdmd.Solver_intf.placement <= max k 1)

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

let prop_scaled_dp_theta1_is_dp =
  QCheck.Test.make ~name:"scaled DP with theta=1 equals DP" ~count:30
    QCheck.(triple (int_bound 100000) (int_range 2 10) (int_range 1 4))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:5 ~lambda:0.5 in
      let dp = Tdmd.Dp.solve ~k inst in
      let sc = Tdmd.Scaled_dp.solve ~k ~theta:1 inst in
      Float.abs (dp.Tdmd.Solver_intf.bandwidth -. sc.Tdmd.Solver_intf.bandwidth) < 1e-6)

let prop_scaled_dp_bounded =
  QCheck.Test.make ~name:"scaled DP is optimal-bounded and shrinks states"
    ~count:30
    QCheck.(pair (int_bound 100000) (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = Fixtures.random_tree_instance rng ~n ~max_rate:12 ~lambda:0.5 in
      let dp = Tdmd.Dp.solve ~k:3 inst in
      let sc = Tdmd.Scaled_dp.solve ~k:3 ~theta:4 inst in
      sc.Tdmd.Solver_intf.bandwidth +. 1e-6 >= dp.Tdmd.Solver_intf.bandwidth
      && Fixtures.count sc "scaled_states" <= Fixtures.count dp "states")

let test_capacitated_unlimited_matches_plain () =
  let inst = Fixtures.fig1_instance () in
  (* With capacity far above the total rate the capacitated greedy can
     reach the plain optimum-quality region. *)
  let cap = Tdmd_extensions.Capacitated.greedy ~k:3 ~capacity:1000 inst in
  Alcotest.(check bool) "feasible" true cap.Tdmd.Solver_intf.feasible;
  Alcotest.(check (float 1e-9)) "reaches optimum" 8.0 cap.Tdmd.Solver_intf.bandwidth

let test_capacitated_tight_capacity () =
  let inst = Fixtures.fig1_instance () in
  (* Capacity 4 forces f1 (rate 4) to its own box. *)
  let a = Tdmd_extensions.Capacitated.allocate inst ~capacity:4 (P.of_list [ 1; 4 ]) in
  Alcotest.(check int) "one flow unserved under tight capacity" 1
    (List.length a.Tdmd_extensions.Capacitated.unserved);
  let wide = Tdmd_extensions.Capacitated.allocate inst ~capacity:6 (P.of_list [ 1; 4 ]) in
  Alcotest.(check int) "looser capacity serves all" 0
    (List.length wide.Tdmd_extensions.Capacitated.unserved)

(* The capacitated greedy decides on the integer volume: below λ = 1 its
   deployment does not depend on λ, even where (1 − λ)·ΔD is far below
   any float bar; at λ = 1 no box lowers b, so it deploys none. *)
let test_capacitated_lambda () =
  let base = Fixtures.fig1_instance () in
  let at lambda =
    let inst =
      Tdmd.Instance.make ~graph:base.Tdmd.Instance.graph ~flows:(Tdmd.Instance.flows base)
        ~lambda
    in
    Tdmd_extensions.Capacitated.greedy ~k:3 ~capacity:1000 inst
  in
  let placement o = P.to_list o.Tdmd.Solver_intf.placement in
  Alcotest.(check (list int)) "1 - 2^-45 deploys as 0.5" (placement (at 0.5))
    (placement (at (1.0 -. ldexp 1.0 (-45))));
  let one = at 1.0 in
  Alcotest.(check (list int)) "lambda = 1 deploys nothing" [] (placement one);
  Alcotest.(check (float 0.0)) "lambda = 1 costs U" 16.0 one.Tdmd.Solver_intf.bandwidth

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dp_optimal;
    QCheck_alcotest.to_alcotest prop_dp_placement_consistent;
    QCheck_alcotest.to_alcotest prop_dp_monotone_in_k;
    Alcotest.test_case "dp: lambda extremes" `Quick test_dp_lambda_extremes;
    Alcotest.test_case "dp: k=0 infeasible" `Quick test_dp_k0_infeasible;
    Alcotest.test_case "dp: single-vertex tree" `Quick test_dp_single_vertex;
    Alcotest.test_case "brute: refuses a 150-vertex instance at k = 25" `Quick
      test_brute_refuses_large;
    QCheck_alcotest.to_alcotest prop_hat_bounded_by_dp;
    QCheck_alcotest.to_alcotest prop_gtp_bounded_by_dp_on_trees;
    QCheck_alcotest.to_alcotest prop_gtp_approximation_ratio;
    QCheck_alcotest.to_alcotest prop_celf_gtp_equal;
    QCheck_alcotest.to_alcotest prop_derived_k_bounds;
    QCheck_alcotest.to_alcotest prop_hat_merge_count;
    QCheck_alcotest.to_alcotest prop_baselines_sandwiched;
    Alcotest.test_case "random baseline: respects k" `Quick test_random_respects_k;
    Alcotest.test_case "best-effort: deterministic" `Quick
      test_best_effort_deterministic;
    Alcotest.test_case "gtp beats best-effort on fig1" `Quick
      test_gtp_beats_best_effort_eventually;
    QCheck_alcotest.to_alcotest prop_scaled_dp_theta1_is_dp;
    QCheck_alcotest.to_alcotest prop_scaled_dp_bounded;
    Alcotest.test_case "capacitated: unlimited = plain" `Quick
      test_capacitated_unlimited_matches_plain;
    Alcotest.test_case "capacitated: tight capacity" `Quick
      test_capacitated_tight_capacity;
    Alcotest.test_case "capacitated: decides on volume, none at lambda 1" `Quick
      test_capacitated_lambda;
  ]
