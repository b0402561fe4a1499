(* Model-layer invariants: instances, placements, allocation and the
   bandwidth objective (paper Sec. 3). *)

open Tdmd_prelude
module P = Tdmd.Placement
module A = Tdmd.Allocation
module B = Tdmd.Bandwidth
module Flow = Tdmd_flow.Flow

let test_placement_ops () =
  let p = P.of_list [ 3; 1; 3; 2 ] in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 2; 3 ] (P.to_list p);
  Alcotest.(check int) "size" 3 (P.size p);
  Alcotest.(check bool) "mem" true (P.mem p 2);
  Alcotest.(check (list int)) "add" [ 0; 1; 2; 3 ] (P.to_list (P.add p 0));
  Alcotest.(check (list int)) "add existing" [ 1; 2; 3 ] (P.to_list (P.add p 2));
  Alcotest.(check (list int)) "remove" [ 1; 3 ] (P.to_list (P.remove p 2));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 9 ]
    (P.to_list (P.union p (P.of_list [ 9; 1 ])));
  Alcotest.(check int) "empty" 0 (P.size P.empty)

let test_instance_validation () =
  let g = Tdmd_graph.Digraph.create 3 in
  Tdmd_graph.Digraph.add_edge g 0 1;
  let ok = Flow.make ~id:0 ~rate:1 ~path:[ 0; 1 ] in
  let bad = Flow.make ~id:1 ~rate:1 ~path:[ 1; 2 ] in
  ignore (Tdmd.Instance.make ~graph:g ~flows:[ ok ] ~lambda:0.5);
  Alcotest.check_raises "lambda out of range"
    (Invalid_argument "Instance.make: lambda must lie in [0, 1]") (fun () ->
      ignore (Tdmd.Instance.make ~graph:g ~flows:[ ok ] ~lambda:1.5));
  (try
     ignore (Tdmd.Instance.make ~graph:g ~flows:[ bad ] ~lambda:0.5);
     Alcotest.fail "expected path rejection"
   with Invalid_argument _ -> ());
  (* A one-vertex path has no arc to check; its vertex must still lie in
     the graph. *)
  Alcotest.check_raises "vertex outside the graph"
    (Invalid_argument "Instance.make: flow vertex outside the graph") (fun () ->
      ignore
        (Tdmd.Instance.make ~graph:g
           ~flows:[ Flow.make ~id:2 ~rate:1 ~path:[ 7 ] ]
           ~lambda:0.5))

(* Every constructor that takes λ refuses one outside [0, 1], naming
   itself; NaN, which fails every comparison, is refused too. *)
let test_lambda_every_constructor () =
  let g = Tdmd_graph.Digraph.create 2 in
  Tdmd_graph.Digraph.add_edge g 0 1;
  let flow = Flow.make ~id:0 ~rate:1 ~path:[ 0; 1 ] in
  let tree = Fixtures.balanced_tree ~arity:2 ~depth:2 in
  let leaf = Flow.make ~id:0 ~rate:2 ~path:(Tdmd_tree.Rooted_tree.path_to_root tree 3) in
  let constructors =
    [
      ("Instance.make", fun lambda -> ignore (Tdmd.Instance.make ~graph:g ~flows:[ flow ] ~lambda));
      ( "Instance.Tree.make",
        fun lambda -> ignore (Tdmd.Instance.Tree.make ~tree ~flows:[ leaf ] ~lambda) );
      ( "Incremental.create",
        fun lambda -> ignore (Tdmd.Incremental.create ~graph:g ~lambda ~k:1 ()) );
      ( "Incremental.restore",
        fun lambda ->
          ignore
            (Tdmd.Incremental.restore ~graph:g ~lambda ~k:1 ~flows:[ flow ] ~placed:[ 0 ]
               ~moves:0 ~arrivals:1 ~departures:0 ()) );
      ("Inc_oracle.empty", fun lambda -> ignore (Tdmd.Inc_oracle.empty ~vertices:2 ~lambda));
    ]
  in
  List.iter
    (fun (who, make) ->
      make 0.0;
      make 1.0;
      List.iter
        (fun lambda ->
          Alcotest.check_raises
            (Printf.sprintf "%s at %g" who lambda)
            (Invalid_argument (who ^ ": lambda must lie in [0, 1]"))
            (fun () -> make lambda))
        [ Float.nan; -0.5; 1.5 ])
    constructors

let test_tree_instance_validation () =
  let tree = Fixtures.balanced_tree ~arity:2 ~depth:2 in
  let good = Flow.make ~id:0 ~rate:2 ~path:(Tdmd_tree.Rooted_tree.path_to_root tree 3) in
  ignore (Tdmd.Instance.Tree.make ~tree ~flows:[ good ] ~lambda:0.5);
  (* Source must be a leaf. *)
  let from_internal =
    Flow.make ~id:1 ~rate:1 ~path:(Tdmd_tree.Rooted_tree.path_to_root tree 1)
  in
  Alcotest.check_raises "internal source"
    (Invalid_argument "Instance.Tree.make: flow source is not a leaf") (fun () ->
      ignore (Tdmd.Instance.Tree.make ~tree ~flows:[ from_internal ] ~lambda:0.5));
  (* Path must be the leaf-to-root path. *)
  let wrong_path = Flow.make ~id:2 ~rate:1 ~path:[ 3; 1 ] in
  Alcotest.check_raises "partial path"
    (Invalid_argument "Instance.Tree.make: flow path is not the leaf-to-root path")
    (fun () -> ignore (Tdmd.Instance.Tree.make ~tree ~flows:[ wrong_path ] ~lambda:0.5))

let test_tree_instance_merges () =
  let tree = Fixtures.star_tree 4 in
  let path = Tdmd_tree.Rooted_tree.path_to_root tree 2 in
  let flows =
    [ Flow.make ~id:0 ~rate:2 ~path; Flow.make ~id:1 ~rate:3 ~path ]
  in
  let inst = Tdmd.Instance.Tree.make ~tree ~flows ~lambda:0.5 in
  Alcotest.(check int) "merged to one" 1 (Array.length inst.Tdmd.Instance.Tree.flows);
  Alcotest.(check int) "rate summed" 5 inst.Tdmd.Instance.Tree.flows.(0).Flow.rate

let test_subtree_rates () =
  let inst = Fixtures.fig5_instance () in
  let r = Tdmd.Instance.Tree.subtree_rate inst in
  Alcotest.(check int) "root holds all" 9 r.(0);
  Alcotest.(check int) "left subtree" 3 r.(1);
  Alcotest.(check int) "right subtree" 6 r.(2);
  Alcotest.(check int) "leaf" 5 r.(6)

let test_allocation_first_box () =
  let inst = Fixtures.fig1_instance () in
  let f1 = (Tdmd.Instance.flows inst) |> List.hd in
  let first placed = A.first_in (A.mask inst (P.of_list placed)) f1 in
  (* f1 path: v5 -> v3 -> v1 (ids 4, 2, 0). *)
  Alcotest.(check int) "earliest box wins (v5, offset 0)" 0 (first [ 2; 4 ]);
  Alcotest.(check int) "mid-path box (v3, offset 1)" 1 (first [ 0; 2 ]);
  Alcotest.(check int) "off-path: unserved (path length)" 3 (first [ 1 ])

let test_flow_consumption_formula () =
  let f = Flow.make ~id:0 ~rate:4 ~path:[ 9; 8; 7; 6 ] in
  (* 3 hops, rate 4, lambda 0.25. *)
  let lam = 0.25 in
  Alcotest.(check (float 1e-9)) "unserved" 12.0
    (Reference.flow_consumption ~lambda:lam f Reference.Unserved);
  Alcotest.(check (float 1e-9)) "served at source" 3.0
    (Reference.flow_consumption ~lambda:lam f (Reference.Served_at { vertex = 9; l = 0 }));
  Alcotest.(check (float 1e-9)) "served mid" 6.0
    (Reference.flow_consumption ~lambda:lam f (Reference.Served_at { vertex = 7; l = 1 }));
  Alcotest.(check (float 1e-9)) "served at dst" 12.0
    (Reference.flow_consumption ~lambda:lam f (Reference.Served_at { vertex = 6; l = 3 }))

(* Eq. 1 invariant: total = volume - decrement for any placement. *)
let prop_objective_identity =
  QCheck.Test.make ~name:"b(P) + d(P) = total volume" ~count:80
    QCheck.(pair (int_bound 100000) (int_range 3 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:6
          ~lambda:(Rng.float rng 1.0)
      in
      let vs = Rng.sample_without_replacement rng n (Rng.int rng n) in
      let p = P.of_list vs in
      Float.abs
        (B.total inst p +. Reference.decrement inst p
        -. float_of_int (Tdmd.Instance.total_path_volume inst))
      < 1e-6)

(* Monotonicity: adding a middlebox never increases bandwidth; both
   sides are renders of integer volumes, so exactly. *)
let prop_adding_box_helps =
  QCheck.Test.make ~name:"adding a box never increases b(P)" ~count:80
    QCheck.(triple (int_bound 100000) (int_range 3 12) (int_bound 11))
    (fun (seed, n, v) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:5 ~lambda:0.5
      in
      let v = v mod n in
      let p = P.of_list (Rng.sample_without_replacement rng n (Rng.int rng n)) in
      B.total inst (P.add p v) <= B.total inst p)

let suite =
  [
    Alcotest.test_case "placement: set operations" `Quick test_placement_ops;
    Alcotest.test_case "instance: validation" `Quick test_instance_validation;
    Alcotest.test_case "tree instance: validation" `Quick test_tree_instance_validation;
    Alcotest.test_case "every constructor checks lambda" `Quick
      test_lambda_every_constructor;
    Alcotest.test_case "tree instance: merges same source" `Quick
      test_tree_instance_merges;
    Alcotest.test_case "tree instance: subtree rates" `Quick test_subtree_rates;
    Alcotest.test_case "allocation: first box on path" `Quick
      test_allocation_first_box;
    Alcotest.test_case "bandwidth: consumption formula" `Quick
      test_flow_consumption_formula;
    QCheck_alcotest.to_alcotest prop_objective_identity;
    QCheck_alcotest.to_alcotest prop_adding_box_helps;
  ]
