module Sc = Setcover
module Red = Reduction

(* The paper's Fig. 2 instance: universe {f1..f4} (ids 0..3),
   S1 = {f1,f2,f4}, S2 = {f1,f2}, S3 = {f3}. *)
let fig2 () = Sc.make ~universe:4 [ [ 0; 1; 3 ]; [ 0; 1 ]; [ 2 ] ]

let test_fig2_cover () =
  let sc = fig2 () in
  (match Sc.exact sc with
  | None -> Alcotest.fail "cover expected"
  | Some cover ->
    (* "the minimum number of subsets ... is S1 and S3" *)
    Alcotest.(check (list int)) "minimum cover" [ 0; 2 ] (List.sort compare cover));
  Alcotest.(check bool) "k=2 decision" true (Sc.decision sc ~k:2);
  Alcotest.(check bool) "k=1 decision" false (Sc.decision sc ~k:1)

let test_greedy_cover () =
  let sc = fig2 () in
  match Sc.greedy sc with
  | None -> Alcotest.fail "greedy cover expected"
  | Some cover ->
    Alcotest.(check bool) "covers" true (Sc.covers sc cover);
    Alcotest.(check (list int)) "greedy = {S1,S3}" [ 0; 2 ] (List.sort compare cover)

let test_uncoverable () =
  let sc = Sc.make ~universe:3 [ [ 0 ]; [ 1 ] ] in
  Alcotest.(check (option (list int))) "greedy none" None (Sc.greedy sc);
  Alcotest.(check (option (list int))) "exact none" None (Sc.exact sc);
  Alcotest.(check bool) "decision false" false (Sc.decision sc ~k:5)

let test_empty_universe () =
  let sc = Sc.make ~universe:0 [ [] ] in
  Alcotest.(check (option (list int))) "greedy empty" (Some []) (Sc.greedy sc);
  Alcotest.(check (option (list int))) "exact empty" (Some []) (Sc.exact sc)

let test_forward_reduction () =
  (* Theorem 1 construction on Fig. 2: the TDMD instance it builds must
     be feasible with k boxes iff the set-cover decision holds. *)
  let sc = fig2 () in
  let g, flows = Red.to_tdmd sc in
  Alcotest.(check int) "one vertex per set" 3 (Tdmd_graph.Digraph.vertex_count g);
  Alcotest.(check int) "one flow per element" 4 (List.length flows);
  (* Deploying on {v1, v3} (ids 0,2) serves all flows. *)
  let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda:0.5 in
  Alcotest.(check bool) "cover placement feasible" true
    (Tdmd.Allocation.is_feasible inst (Tdmd.Placement.of_list [ 0; 2 ]));
  Alcotest.(check bool) "non-cover placement infeasible" false
    (Tdmd.Allocation.is_feasible inst (Tdmd.Placement.of_list [ 1; 2 ]));
  Alcotest.(check bool) "feasible with 2" true (Feasibility.feasible_exists inst ~k:2);
  Alcotest.(check bool) "infeasible with 1" false
    (Feasibility.feasible_exists inst ~k:1)

let test_reduction_rejects_empty_element () =
  let sc = Sc.make ~universe:2 [ [ 0 ] ] in
  Alcotest.check_raises "element in no set"
    (Invalid_argument "Reduction.to_tdmd: element contained in no set") (fun () ->
      ignore (Red.to_tdmd sc))

let test_backward_reduction () =
  let inst = Fixtures.fig1_instance () in
  let sc = Feasibility.to_setcover inst in
  Alcotest.(check int) "universe = flows" 4 sc.Sc.universe;
  (* Minimum cover of Fig. 1 is 2 ({v2,v5} works, nothing of size 1). *)
  Alcotest.(check int) "min middleboxes" 2 (Feasibility.min_middleboxes inst);
  Alcotest.(check bool) "exists k=2" true (Feasibility.feasible_exists inst ~k:2);
  Alcotest.(check bool) "not k=1" false (Feasibility.feasible_exists inst ~k:1);
  match Feasibility.greedy_cover inst with
  | None -> Alcotest.fail "cover expected"
  | Some p -> Alcotest.(check bool) "greedy cover feasible" true
                (Tdmd.Allocation.is_feasible inst p)

(* Property: greedy covers whenever exact does, and is never smaller. *)
let prop_greedy_vs_exact =
  QCheck.Test.make ~name:"setcover: greedy valid, exact minimal" ~count:150
    QCheck.(pair (int_range 1 10) (int_bound 100000))
    (fun (u, seed) ->
      let rng = Tdmd_prelude.Rng.create seed in
      let n_sets = 1 + Tdmd_prelude.Rng.int rng 8 in
      let sets =
        List.init n_sets (fun _ ->
            List.filter (fun _ -> Tdmd_prelude.Rng.bool rng)
              (List.init u (fun e -> e)))
      in
      let sc = Sc.make ~universe:u sets in
      match (Sc.greedy sc, Sc.exact sc) with
      | None, None -> true
      | Some g, Some e ->
        Sc.covers sc g && Sc.covers sc e && List.length e <= List.length g
      | Some _, None | None, Some _ -> false)

(* Property: Theorem 1 equivalence — the set-cover decision equals TDMD
   feasibility of the constructed instance, for every k. *)
let prop_reduction_equivalence =
  QCheck.Test.make ~name:"theorem 1: cover(k) iff TDMD feasible(k)" ~count:100
    QCheck.(pair (int_range 1 8) (int_bound 100000))
    (fun (u, seed) ->
      let rng = Tdmd_prelude.Rng.create seed in
      let n_sets = 1 + Tdmd_prelude.Rng.int rng 6 in
      let sets =
        List.init n_sets (fun _ ->
            List.filter (fun _ -> Tdmd_prelude.Rng.bool rng)
              (List.init u (fun e -> e)))
      in
      (* Guarantee every element is somewhere so the construction is
         well-defined: one catch-all set. *)
      let sets = List.init u (fun e -> [ e ]) @ sets in
      let sc = Sc.make ~universe:u sets in
      let g, flows = Red.to_tdmd sc in
      let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda:0.0 in
      List.for_all
        (fun k -> Sc.decision sc ~k = Feasibility.feasible_exists inst ~k)
        [ 1; 2; 3; u + n_sets ])

let suite =
  [
    Alcotest.test_case "fig2: exact + decision" `Quick test_fig2_cover;
    Alcotest.test_case "fig2: greedy" `Quick test_greedy_cover;
    Alcotest.test_case "uncoverable universe" `Quick test_uncoverable;
    Alcotest.test_case "empty universe" `Quick test_empty_universe;
    Alcotest.test_case "theorem1: forward reduction" `Quick test_forward_reduction;
    Alcotest.test_case "theorem1: rejects orphan elements" `Quick
      test_reduction_rejects_empty_element;
    Alcotest.test_case "theorem1: backward reduction (fig1)" `Quick
      test_backward_reduction;
    QCheck_alcotest.to_alcotest prop_greedy_vs_exact;
    QCheck_alcotest.to_alcotest prop_reduction_equivalence;
  ]
