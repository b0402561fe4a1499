(* Tests for all-pairs shortest paths, checked against BFS on unit
   weights (the shape every generated topology has). *)

open Tdmd_prelude
module G = Tdmd_graph.Digraph

let weighted_square () =
  (* 0 -1- 1, 1 -2- 3, 0 -4- 2, 2 -1- 3, 0 -10- 3 *)
  let g = G.create 4 in
  G.add_undirected ~weight:1.0 g 0 1;
  G.add_undirected ~weight:2.0 g 1 3;
  G.add_undirected ~weight:4.0 g 0 2;
  G.add_undirected ~weight:1.0 g 2 3;
  G.add_undirected ~weight:10.0 g 0 3;
  g

let test_floyd_warshall () =
  let g = weighted_square () in
  let d = Tdmd_graph.Floyd_warshall.distances g in
  Alcotest.(check (float 1e-9)) "0->3 shortest" 3.0 d.(0).(3);
  Alcotest.(check (float 1e-9)) "diagonal" 0.0 d.(2).(2);
  Alcotest.(check (float 1e-9)) "0->2 via 3" 4.0 d.(0).(2);
  Alcotest.(check (float 1e-9)) "diameter" 4.0 (Tdmd_graph.Floyd_warshall.diameter g)

let prop_floyd_matches_bfs =
  QCheck.Test.make ~name:"floyd-warshall = bfs from every source" ~count:40
    QCheck.(pair (int_range 2 15) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.3 in
      let fw = Tdmd_graph.Floyd_warshall.distances g in
      List.for_all
        (fun s ->
          Array.for_all Fun.id
            (Array.mapi
               (fun t a ->
                 match Tdmd_graph.Bfs.shortest_path g ~src:s ~dst:t with
                 | None -> a = infinity
                 | Some path -> a = float_of_int (List.length path - 1))
               fw.(s)))
        (Listx.range 0 (n - 1)))

let suite =
  [
    Alcotest.test_case "floyd-warshall: square" `Quick test_floyd_warshall;
    QCheck_alcotest.to_alcotest prop_floyd_matches_bfs;
  ]
