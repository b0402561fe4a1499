module Rt = Tdmd_tree.Rooted_tree
module Lca = Tdmd_tree.Lca

(* The Fig. 5 tree: 0 root; 1,2 children; 3,4 under 1; 5 under 2;
   6,7 under 5. *)
let fig5 () = Rt.of_parents ~root:0 [| -1; 0; 0; 1; 1; 2; 5; 5 |]

let test_structure () =
  let t = fig5 () in
  Alcotest.(check int) "size" 8 (Rt.size t);
  Alcotest.(check int) "root" 0 (Rt.root t);
  Alcotest.(check int) "parent of 6" 5 (Rt.parent t 6);
  Alcotest.(check int) "parent of root" (-1) (Rt.parent t 0);
  Alcotest.(check (list int)) "children of 1" [ 3; 4 ] (Rt.children t 1);
  Alcotest.(check (list int)) "leaves" [ 3; 4; 6; 7 ] (Rt.leaves t);
  Alcotest.(check int) "depth of 7" 3 (Rt.depth t 7);
  Alcotest.(check int) "height" 3 (Rt.height t);
  Alcotest.(check bool) "leaf" true (Rt.is_leaf t 3);
  Alcotest.(check bool) "internal" false (Rt.is_leaf t 2)

let test_traversals () =
  let t = fig5 () in
  let post = Rt.postorder t in
  Alcotest.(check int) "postorder length" 8 (List.length post);
  (* Children precede parents. *)
  let pos = Array.make 8 0 in
  List.iteri (fun i v -> pos.(v) <- i) post;
  for v = 1 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "child %d before parent" v)
      true
      (pos.(v) < pos.(Rt.parent t v))
  done;
  Alcotest.(check (list int)) "path to root" [ 7; 5; 2; 0 ] (Rt.path_to_root t 7)

(* Ancestry (Def. 3, reflexive) is membership in the path to the root,
   which the DP and HAT walk. *)
let test_ancestry () =
  let t = fig5 () in
  let is_ancestor ~anc ~desc = List.mem anc (Rt.path_to_root t desc) in
  Alcotest.(check bool) "self ancestor (Def. 3)" true (is_ancestor ~anc:6 ~desc:6);
  Alcotest.(check bool) "root ancestor of all" true (is_ancestor ~anc:0 ~desc:7);
  Alcotest.(check bool) "cousin not ancestor" false (is_ancestor ~anc:1 ~desc:6)

let test_rejects () =
  Alcotest.check_raises "cycle" (Invalid_argument "Rooted_tree: not a connected tree")
    (fun () -> ignore (Rt.of_parents ~root:0 [| -1; 2; 1 |]));
  Alcotest.check_raises "bad root"
    (Invalid_argument "Rooted_tree: root must have parent -1") (fun () ->
      ignore (Rt.of_parents ~root:0 [| 1; -1 |]))

let test_of_digraph () =
  let g = Tdmd_graph.Digraph.create 4 in
  Tdmd_graph.Digraph.add_undirected g 0 1;
  Tdmd_graph.Digraph.add_undirected g 1 2;
  Tdmd_graph.Digraph.add_undirected g 1 3;
  let t = Rt.of_digraph g ~root:0 in
  Alcotest.(check int) "depth 2" 2 (Rt.depth t 2);
  Alcotest.(check (list int)) "leaves" [ 2; 3 ] (Rt.leaves t);
  (* Extra edge makes it a non-tree. *)
  Tdmd_graph.Digraph.add_undirected g 2 3;
  Alcotest.check_raises "non-tree"
    (Invalid_argument "Rooted_tree.of_digraph: graph has extra edges") (fun () ->
      ignore (Rt.of_digraph g ~root:0))

let test_to_digraph () =
  let t = fig5 () in
  let g = Rt.to_digraph t in
  Alcotest.(check int) "arcs = n-1" 7 (Tdmd_graph.Digraph.edge_count g);
  Alcotest.(check bool) "child->parent arc" true (Tdmd_graph.Digraph.mem_edge g 7 5);
  Alcotest.(check bool) "no reverse arc" false (Tdmd_graph.Digraph.mem_edge g 5 7)

let test_lca_fig5 () =
  let t = fig5 () in
  let l = Lca.build t in
  (* Paper's examples on its Fig. 5 (1-based v4,v5 -> v2 etc.). *)
  Alcotest.(check int) "lca(3,4)=1" 1 (Lca.query l 3 4);
  Alcotest.(check int) "lca(0,5)=0" 0 (Lca.query l 0 5);
  Alcotest.(check int) "lca(6,7)=5" 5 (Lca.query l 6 7);
  Alcotest.(check int) "lca(3,6)=0" 0 (Lca.query l 3 6);
  Alcotest.(check int) "lca(v,v)=v" 6 (Lca.query l 6 6);
  Alcotest.(check int) "lca with ancestor" 2 (Lca.query l 2 7)

let prop_lca_matches_naive =
  QCheck.Test.make ~name:"binary-lifting LCA = naive LCA" ~count:100
    QCheck.(triple (int_range 2 60) (int_bound 10000) (int_bound 999))
    (fun (n, seed, qseed) ->
      let rng = Tdmd_prelude.Rng.create seed in
      let t = Tdmd_topo.Topo_tree.random_attachment rng n in
      let l = Lca.build t in
      let qrng = Tdmd_prelude.Rng.create qseed in
      let ok = ref true in
      for _ = 1 to 30 do
        let u = Tdmd_prelude.Rng.int qrng n and v = Tdmd_prelude.Rng.int qrng n in
        if Lca.query l u v <> Reference.lca t u v then ok := false
      done;
      !ok)

let prop_postorder_valid =
  QCheck.Test.make ~name:"postorder visits children first" ~count:100
    QCheck.(pair (int_range 1 80) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Tdmd_prelude.Rng.create seed in
      let t = Tdmd_topo.Topo_tree.random_attachment rng n in
      let pos = Array.make n (-1) in
      List.iteri (fun i v -> pos.(v) <- i) (Rt.postorder t);
      Array.for_all (fun p -> p >= 0) pos
      && List.for_all
           (fun v -> v = Rt.root t || pos.(v) < pos.(Rt.parent t v))
           (List.init n (fun i -> i)))

let suite =
  [
    Alcotest.test_case "rooted tree: structure" `Quick test_structure;
    Alcotest.test_case "rooted tree: traversals" `Quick test_traversals;
    Alcotest.test_case "rooted tree: ancestry" `Quick test_ancestry;
    Alcotest.test_case "rooted tree: rejects" `Quick test_rejects;
    Alcotest.test_case "rooted tree: of_digraph" `Quick test_of_digraph;
    Alcotest.test_case "rooted tree: to_digraph" `Quick test_to_digraph;
    Alcotest.test_case "lca: fig5 queries" `Quick test_lca_fig5;
    QCheck_alcotest.to_alcotest prop_lca_matches_naive;
    QCheck_alcotest.to_alcotest prop_postorder_valid;
  ]
