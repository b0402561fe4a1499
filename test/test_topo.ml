open Tdmd_prelude
module G = Tdmd_graph.Digraph
module Rt = Tdmd_tree.Rooted_tree
module Tt = Tdmd_topo.Topo_tree
module Tg = Tdmd_topo.Topo_general
module Dc = Tdmd_topo.Datacenter

let test_path_star_balanced () =
  let p = Fixtures.path_tree 5 in
  Alcotest.(check int) "path height" 4 (Rt.height p);
  Alcotest.(check (list int)) "path leaves" [ 4 ] (Rt.leaves p);
  let s = Fixtures.star_tree 6 in
  Alcotest.(check int) "star height" 1 (Rt.height s);
  Alcotest.(check int) "star leaves" 5 (List.length (Rt.leaves s));
  let b = Fixtures.balanced_tree ~arity:2 ~depth:3 in
  Alcotest.(check int) "perfect binary size" 15 (Rt.size b);
  Alcotest.(check int) "perfect binary leaves" 8 (List.length (Rt.leaves b));
  Alcotest.(check int) "height" 3 (Rt.height b)

let test_random_trees () =
  let rng = Rng.create 21 in
  for n = 1 to 40 do
    let t = Tt.random_attachment rng n in
    Alcotest.(check int) "size" n (Rt.size t);
    let tb = Fixtures.random_binary_tree rng n in
    Alcotest.(check int) "binary size" n (Rt.size tb);
    for v = 0 to n - 1 do
      Alcotest.(check bool) "binary arity" true (List.length (Rt.children tb v) <= 2)
    done
  done

let test_tree_resize () =
  let rng = Rng.create 22 in
  let t = Tt.random_attachment rng 20 in
  let grown = Tt.resize rng t 35 in
  Alcotest.(check int) "grown" 35 (Rt.size grown);
  let shrunk = Tt.resize rng t 8 in
  Alcotest.(check int) "shrunk" 8 (Rt.size shrunk);
  Alcotest.(check int) "same" 20 (Rt.size (Tt.resize rng t 20))

let test_erdos_renyi_connected () =
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 40 in
    let g = Tg.erdos_renyi rng n ~p:0.1 in
    Alcotest.(check bool) "connected" true (Fixtures.is_connected_undirected g);
    Alcotest.(check int) "size" n (G.vertex_count g)
  done

let test_spanning_tree () =
  let rng = Rng.create 27 in
  let g = Tg.erdos_renyi rng 25 ~p:0.25 in
  let t = Tg.spanning_tree rng g ~root:3 in
  Alcotest.(check int) "size" 25 (Rt.size t);
  Alcotest.(check int) "root" 3 (Rt.root t);
  (* Every tree edge exists in the graph (in some direction). *)
  for v = 0 to 24 do
    let p = Rt.parent t v in
    if p >= 0 then
      Alcotest.(check bool) "edge exists" true (G.mem_edge g v p || G.mem_edge g p v)
  done

let test_fat_tree () =
  let ft = Dc.fat_tree 4 in
  Alcotest.(check int) "core" 4 (List.length ft.Dc.core);
  Alcotest.(check int) "aggregation" 8 (List.length ft.Dc.aggregation);
  Alcotest.(check int) "edge" 8 (List.length ft.Dc.edge);
  Alcotest.(check int) "hosts" 16 (List.length ft.Dc.hosts);
  Alcotest.(check int) "vertices" 36 (G.vertex_count ft.Dc.graph);
  Alcotest.(check bool) "connected" true (Fixtures.is_connected_undirected ft.Dc.graph);
  (* k=4 fat-tree has 48 undirected links = 96 arcs. *)
  Alcotest.(check int) "arcs" 96 (G.edge_count ft.Dc.graph);
  List.iter
    (fun h -> Alcotest.(check int) "host degree 1" 1 (G.out_degree ft.Dc.graph h))
    ft.Dc.hosts;
  Alcotest.check_raises "odd k" (Invalid_argument "Datacenter.fat_tree: k must be even, >= 2")
    (fun () -> ignore (Dc.fat_tree 3))

let test_ark () =
  let rng = Rng.create 28 in
  let a = Tdmd_topo.Ark.generate rng ~n:44 in
  Alcotest.(check int) "size" 44 (G.vertex_count a.Tdmd_topo.Ark.graph);
  Alcotest.(check bool) "connected" true
    (Fixtures.is_connected_undirected a.Tdmd_topo.Ark.graph);
  Alcotest.(check bool) "has hubs" true (a.Tdmd_topo.Ark.hubs <> []);
  Alcotest.(check int) "hubs + monitors = all" 44
    (List.length a.Tdmd_topo.Ark.hubs + List.length a.Tdmd_topo.Ark.monitors);
  let t = Tdmd_topo.Ark.tree_of rng a in
  Alcotest.(check int) "tree size" 44 (Rt.size t);
  Alcotest.(check bool) "tree rooted at hub" true
    (List.mem (Rt.root t) a.Tdmd_topo.Ark.hubs);
  let sub, dests = Tdmd_topo.Ark.general_of rng a ~size:20 in
  Alcotest.(check int) "subgraph size" 20 (G.vertex_count sub);
  Alcotest.(check bool) "subgraph connected" true (Fixtures.is_connected_undirected sub);
  Alcotest.(check bool) "has destinations" true (dests <> []);
  List.iter
    (fun d -> Alcotest.(check bool) "dest in range" true (d >= 0 && d < 20))
    dests

let prop_generators_connected =
  QCheck.Test.make ~name:"every generator yields a connected topology" ~count:60
    QCheck.(pair (int_range 2 50) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      Fixtures.is_connected_undirected (Tg.erdos_renyi rng n ~p:0.05)
      && Fixtures.is_connected_undirected
           (Tdmd_topo.Ark.generate rng ~n).Tdmd_topo.Ark.graph
      && Rt.size (Tt.random_attachment rng n) = n)

let test_topo_stats () =
  (* A 4-cycle: every degree 2, diameter 2, mean distance 4/3. *)
  let g = G.create 4 in
  G.add_undirected g 0 1;
  G.add_undirected g 1 2;
  G.add_undirected g 2 3;
  G.add_undirected g 3 0;
  let s = Tdmd_topo.Topo_stats.compute g in
  Alcotest.(check int) "links" 4 s.Tdmd_topo.Topo_stats.undirected_links;
  Alcotest.(check int) "min degree" 2 s.Tdmd_topo.Topo_stats.min_degree;
  Alcotest.(check int) "max degree" 2 s.Tdmd_topo.Topo_stats.max_degree;
  Alcotest.(check (float 1e-9)) "mean degree" 2.0 s.Tdmd_topo.Topo_stats.mean_degree;
  Alcotest.(check (float 1e-9)) "diameter" 2.0 s.Tdmd_topo.Topo_stats.diameter;
  Alcotest.(check (float 1e-9)) "mean distance" (4.0 /. 3.0)
    s.Tdmd_topo.Topo_stats.mean_distance;
  Alcotest.(check (list (pair int int))) "degree histogram" [ (2, 4) ]
    s.Tdmd_topo.Topo_stats.degree_histogram;
  Alcotest.(check bool) "renders" true
    (String.length (Tdmd_topo.Topo_stats.render s) > 0)

(* ------------------------------------------------------------------ *)
(* Partition: hub-rooted regions for the sharded serve engine          *)
(* ------------------------------------------------------------------ *)

module Pt = Tdmd_topo.Partition

let random_path rng n =
  let len = 1 + Rng.int rng 8 in
  Array.init len (fun _ -> Rng.int rng n)

let prop_partition_total =
  QCheck.Test.make ~name:"partition: every vertex gets exactly one shard"
    ~count:80
    QCheck.(triple (int_range 2 60) (int_range 1 6) (int_bound 100000))
    (fun (n, shards, seed) ->
      let rng = Rng.create seed in
      let g = Tg.erdos_renyi rng n ~p:0.1 in
      let p = Pt.make g ~shards in
      Pt.shards p = shards
      && Pt.vertex_count p = n
      && List.for_all
           (fun v ->
             let s = Pt.owner p v in
             s >= 0 && s < shards)
           (List.init n Fun.id)
      && Array.fold_left ( + ) 0 (Pt.counts p) = n)

let prop_partition_deterministic =
  QCheck.Test.make
    ~name:"partition: a pure function of the graph (recovery recomputes it)"
    ~count:60
    QCheck.(triple (int_range 2 60) (int_range 1 6) (int_bound 100000))
    (fun (n, shards, seed) ->
      let rng = Rng.create seed in
      let g = Tg.erdos_renyi rng n ~p:0.1 in
      let a = Pt.make g ~shards and b = Pt.make g ~shards in
      List.for_all (fun v -> Pt.owner a v = Pt.owner b v) (List.init n Fun.id))

let prop_partition_one_shard_never_cross =
  QCheck.Test.make ~name:"partition: one shard owns every path" ~count:60
    QCheck.(pair (int_range 2 40) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Tg.erdos_renyi rng n ~p:0.1 in
      let p = Pt.make g ~shards:1 in
      List.for_all
        (fun _ -> Pt.ownership p (random_path rng n) = Pt.Owned 0)
        (List.init 20 Fun.id))

let prop_partition_home_majority =
  QCheck.Test.make
    ~name:"partition: cross home owns the most path vertices, ties low"
    ~count:80
    QCheck.(triple (int_range 4 60) (int_range 2 6) (int_bound 100000))
    (fun (n, shards, seed) ->
      let rng = Rng.create seed in
      let g = Tg.erdos_renyi rng n ~p:0.1 in
      let p = Pt.make g ~shards in
      List.for_all
        (fun _ ->
          let path = random_path rng n in
          let counts = Array.make shards 0 in
          Array.iter
            (fun v ->
              let s = Pt.owner p v in
              counts.(s) <- counts.(s) + 1)
            path;
          let expected_home = ref 0 in
          for s = 1 to shards - 1 do
            if counts.(s) > counts.(!expected_home) then expected_home := s
          done;
          let owners =
            List.sort_uniq compare
              (Array.to_list (Array.map (Pt.owner p) path))
          in
          match Pt.ownership p path with
          | Pt.Owned s -> owners = [ s ]
          | Pt.Cross { home } -> home = !expected_home && List.length owners > 1)
        (List.init 20 Fun.id))

let test_partition_edges () =
  let g = G.create 6 in
  for v = 0 to 4 do
    G.add_undirected g v (v + 1)
  done;
  (* Explicit seeds pin the regions: BFS fronts from 1 and 4 meet in
     the middle of the line. *)
  let p = Pt.make ~seeds:[ 1; 4 ] g ~shards:2 in
  Alcotest.(check (list int)) "line splits contiguously"
    [ 0; 0; 0; 1; 1; 1 ]
    (List.map (Pt.owner p) [ 0; 1; 2; 3; 4; 5 ]);
  (match Pt.ownership p [| 2; 3 |] with
  | Pt.Cross { home = 0 } -> ()
  | _ -> Alcotest.fail "straddling path must be cross with home 0");
  let t = Pt.trivial ~n:4 in
  Alcotest.(check int) "trivial is one shard" 1 (Pt.shards t);
  Alcotest.check_raises "empty path refused"
    (Invalid_argument "Partition.ownership: empty path") (fun () ->
      ignore (Pt.ownership p [||]))

let suite =
  [
    Alcotest.test_case "stats: 4-cycle" `Quick test_topo_stats;
    Alcotest.test_case "trees: path/star/balanced" `Quick test_path_star_balanced;
    Alcotest.test_case "trees: random generators" `Quick test_random_trees;
    Alcotest.test_case "trees: resize" `Quick test_tree_resize;
    Alcotest.test_case "general: erdos-renyi" `Quick test_erdos_renyi_connected;
    Alcotest.test_case "general: spanning tree" `Quick test_spanning_tree;
    Alcotest.test_case "datacenter: fat-tree" `Quick test_fat_tree;
    Alcotest.test_case "ark: generator, tree, subgraph" `Quick test_ark;
    QCheck_alcotest.to_alcotest prop_generators_connected;
    Alcotest.test_case "partition: line, trivial" `Quick
      test_partition_edges;
    QCheck_alcotest.to_alcotest prop_partition_total;
    QCheck_alcotest.to_alcotest prop_partition_deterministic;
    QCheck_alcotest.to_alcotest prop_partition_one_shard_never_cross;
    QCheck_alcotest.to_alcotest prop_partition_home_majority;
  ]
