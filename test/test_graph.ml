module G = Tdmd_graph.Digraph
module Bfs = Tdmd_graph.Bfs

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, plus a slow direct 0 -> 3. *)
  let g = G.create 4 in
  G.add_edge g 0 1;
  G.add_edge g 1 3;
  G.add_edge g 0 2;
  G.add_edge g 2 3;
  G.add_edge ~weight:5.0 g 0 3;
  g

let test_digraph_basics () =
  let g = diamond () in
  Alcotest.(check int) "vertices" 4 (G.vertex_count g);
  Alcotest.(check int) "arcs" 5 (G.edge_count g);
  Alcotest.(check bool) "mem" true (G.mem_edge g 0 1);
  Alcotest.(check bool) "directed" false (G.mem_edge g 1 0);
  Alcotest.(check int) "out degree" 3 (G.out_degree g 0);
  Alcotest.(check int) "in degree" 3 (G.in_degree g 3);
  Alcotest.(check (list int)) "succ order" [ 1; 2; 3 ] (G.succ g 0);
  Alcotest.(check (float 0.0)) "weight" 5.0 (G.weight g 0 3)

let test_digraph_rejects () =
  let g = G.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop")
    (fun () -> G.add_edge g 1 1);
  Alcotest.check_raises "range" (Invalid_argument "Digraph: vertex out of range")
    (fun () -> G.add_edge g 0 7)

let test_digraph_duplicate_ignored () =
  let g = G.create 2 in
  G.add_edge ~weight:1.0 g 0 1;
  G.add_edge ~weight:9.0 g 0 1;
  Alcotest.(check int) "one arc" 1 (G.edge_count g);
  Alcotest.(check (float 0.0)) "first weight wins" 1.0 (G.weight g 0 1)

let test_induced () =
  let g = diamond () in
  let sub, mapping = G.induced g [| 0; 1; 3 |] in
  Alcotest.(check int) "sub vertices" 3 (G.vertex_count sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 3 |] mapping;
  Alcotest.(check bool) "0->1 kept" true (G.mem_edge sub 0 1);
  Alcotest.(check bool) "1->3 remapped" true (G.mem_edge sub 1 2);
  Alcotest.(check bool) "0->3 remapped" true (G.mem_edge sub 0 2);
  Alcotest.(check int) "edge count" 3 (G.edge_count sub)

let test_connectivity () =
  let g = G.create 4 in
  G.add_edge g 0 1;
  G.add_edge g 2 3;
  Alcotest.(check bool) "disconnected" false (G.is_connected_undirected g);
  G.add_edge g 3 1;
  Alcotest.(check bool) "connected ignoring direction" true
    (G.is_connected_undirected g)

let test_bfs () =
  let g = diamond () in
  let d = Bfs.distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 1; 1 |] d;
  match Bfs.shortest_path g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "path expected"
  | Some p ->
    Alcotest.(check int) "hop-shortest uses direct arc" 2 (List.length p);
    Alcotest.(check (list (pair int int))) "edges" [ (0, 3) ] (Bfs.path_to_edges p)

let test_bfs_unreachable () =
  let g = G.create 3 in
  G.add_edge g 0 1;
  Alcotest.(check (option (list int))) "unreachable" None
    (Bfs.shortest_path g ~src:0 ~dst:2);
  Alcotest.(check int) "max_int distance" max_int (Bfs.distances g 0).(2)

let test_to_dot () =
  let g = G.create 2 in
  G.add_edge g 0 1;
  let dot = G.to_dot ~name:"t" g in
  Alcotest.(check bool) "mentions arc" true (contains dot "0 -> 1")

let suite =
  [
    Alcotest.test_case "digraph: basics" `Quick test_digraph_basics;
    Alcotest.test_case "digraph: rejects" `Quick test_digraph_rejects;
    Alcotest.test_case "digraph: duplicate arcs ignored" `Quick
      test_digraph_duplicate_ignored;
    Alcotest.test_case "digraph: induced subgraph" `Quick test_induced;
    Alcotest.test_case "digraph: connectivity" `Quick test_connectivity;
    Alcotest.test_case "bfs: diamond" `Quick test_bfs;
    Alcotest.test_case "bfs: unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "digraph: dot export" `Quick test_to_dot;
  ]
