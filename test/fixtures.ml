(* Shared instances: the paper's two worked examples, plus random
   instance generators used across the test modules. *)

open Tdmd_prelude
module G = Tdmd_graph.Digraph
module Rt = Tdmd_tree.Rooted_tree
module Flow = Tdmd_flow.Flow

(* A work counter of a solver run, read off its outcome's telemetry. *)
let count (o : Tdmd.Solver_intf.outcome) name =
  Tdmd_obs.Telemetry.get_count o.Tdmd.Solver_intf.telemetry name

(* Paper Fig. 1: vertices v1..v6 are ids 0..5.  Flows (rates 4,2,2,2):
   f1: v5->v3->v1, f2: v6->v3->v2, f3: v6->v2, f4: v4->v2; lambda 0.5.
   (The flow paths are reverse-engineered from Tab. 2's marginal
   decrements and the worked totals 12 and 8 — every entry is pinned in
   test_paper_examples.) *)
let v1 = 0
and v2 = 1
and v3 = 2
and v4 = 3
and v5 = 4
and v6 = 5

let fig1_instance () =
  let g = G.create 6 in
  List.iter
    (fun (a, b) -> G.add_undirected g a b)
    [ (v5, v3); (v3, v1); (v6, v3); (v3, v2); (v6, v2); (v4, v2); (v2, v1) ];
  let flows =
    [
      Flow.make ~id:0 ~rate:4 ~path:[ v5; v3; v1 ];
      Flow.make ~id:1 ~rate:2 ~path:[ v6; v3; v2 ];
      Flow.make ~id:2 ~rate:2 ~path:[ v6; v2 ];
      Flow.make ~id:3 ~rate:2 ~path:[ v4; v2 ];
    ]
  in
  Tdmd.Instance.make ~graph:g ~flows ~lambda:0.5

(* Paper Fig. 5: binary tree v1..v8 (ids 0..7).
   v1 root; children v2, v3; v2's children v4, v5; v3's child v6;
   v6's children v7, v8.  Flows: f1 (r=2) at v4, f4 (r=1) at v5,
   f3 (r=5) at v7, f2 (r=1) at v8; lambda 0.5. *)
let fig5_tree () =
  (*            ids:  v1=0 v2=1 v3=2 v4=3 v5=4 v6=5 v7=6 v8=7 *)
  Rt.of_parents ~root:0 [| -1; 0; 0; 1; 1; 2; 5; 5 |]

let fig5_instance () =
  let tree = fig5_tree () in
  let flow id rate leaf = Flow.make ~id ~rate ~path:(Rt.path_to_root tree leaf) in
  let flows = [ flow 0 2 3; flow 1 1 7; flow 2 5 6; flow 3 1 4 ] in
  Tdmd.Instance.Tree.make ~tree ~flows ~lambda:0.5

(* Random small instances for cross-checking solvers. *)

let random_tree_instance ?(binary = false) rng ~n ~max_rate ~lambda =
  let tree =
    if binary then Tdmd_topo.Topo_tree.random_binary rng n
    else Tdmd_topo.Topo_tree.random_attachment rng n
  in
  let leaves = List.filter (fun v -> v <> Rt.root tree) (Rt.leaves tree) in
  let flows =
    List.mapi
      (fun id leaf ->
        Flow.make ~id ~rate:(Rng.int_in rng 1 max_rate)
          ~path:(Rt.path_to_root tree leaf))
      leaves
  in
  Tdmd.Instance.Tree.make ~tree ~flows ~lambda

let random_general_instance rng ~n ~flows:count ~max_rate ~lambda =
  let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.25 in
  let rec draw id acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let src = Rng.int rng n and dst = Rng.int rng n in
      if src = dst then draw id acc remaining
      else begin
        match Tdmd_graph.Bfs.shortest_path g ~src ~dst with
        | None -> draw id acc remaining
        | Some path ->
          let f = Flow.make ~id ~rate:(Rng.int_in rng 1 max_rate) ~path in
          draw (id + 1) (f :: acc) (remaining - 1)
      end
    end
  in
  Tdmd.Instance.make ~graph:g ~flows:(draw 0 [] count) ~lambda
