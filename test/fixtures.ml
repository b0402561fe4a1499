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

(* Tree shapes the tests build inputs on, all rooted at vertex 0: a
   chain of [n] vertices, a root with [n - 1] leaves, the perfect
   [arity]-ary tree of a depth ([depth = 0] is one vertex), and a random
   tree whose vertices have at most two children (Sec. 5.1's binary
   trees). *)
let path_tree n = Rt.of_parents ~root:0 (Array.init n (fun i -> i - 1))
let star_tree n = Rt.of_parents ~root:0 (Array.init n (fun i -> if i = 0 then -1 else 0))

let balanced_tree ~arity ~depth =
  (* Vertices in BFS order: vertex i's parent is (i-1)/arity. *)
  let rec count d acc pow = if d < 0 then acc else count (d - 1) (acc + pow) (pow * arity) in
  Rt.of_parents ~root:0
    (Array.init (count depth 0 1) (fun i -> if i = 0 then -1 else (i - 1) / arity))

let random_binary_tree rng n =
  let parents = Array.make n (-1) in
  let child_count = Array.make n 0 in
  for v = 1 to n - 1 do
    (* Vertex v-1 always has < 2 children right after being added, so
       some parent has room. *)
    let candidates = List.filter (fun u -> child_count.(u) < 2) (Listx.range 0 (v - 1)) in
    let p = Rng.choose rng (Array.of_list candidates) in
    parents.(v) <- p;
    child_count.(p) <- child_count.(p) + 1
  done;
  Rt.of_parents ~root:0 parents

(* Random small instances for cross-checking solvers. *)

let random_tree_instance ?(binary = false) rng ~n ~max_rate ~lambda =
  let tree =
    if binary then random_binary_tree rng n
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

(* Connectivity ignoring arc direction (vacuously true on <= 1
   vertices): every generator must produce a connected graph. *)
let is_connected_undirected g =
  let n = G.vertex_count g in
  let seen = Array.make n false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit (G.succ g v @ G.pred g v)
    end
  in
  n <= 1
  || begin
       visit 0;
       Array.for_all Fun.id seen
     end

let dst f = f.Flow.path.(Array.length f.Flow.path - 1)

(* The k "derived from the algorithm" (Sec. 4.2): boxes Alg. 1 deploys,
   max-marginal vertex first, until every flow is served, then the
   cover fix-up when no marginal is positive first. *)
let derived_k inst =
  let module O = Tdmd.Inc_oracle in
  let o = O.create inst in
  let rec rounds chosen =
    if O.is_feasible o then chosen
    else
      match O.argmax o O.Marginal_volume with
      | Some v ->
        O.add o v;
        rounds (v :: chosen)
      | None ->
        Tdmd.Cover_fixup.within o ~chosen:(List.rev chosen)
          ~budget:(Tdmd.Instance.vertex_count inst)
  in
  List.length (List.sort_uniq compare (rounds []))
