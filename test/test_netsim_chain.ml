(* The fluid link simulator (cross-validating Eq. 1 end to end), the
   service-chain extension, the SVG renderer, and the gravity-model
   workload. *)

open Tdmd_prelude
module P = Tdmd.Placement
module Flow = Tdmd_flow.Flow
module Ns = Tdmd_netsim.Netsim

(* ------------------------------------------------------------------ *)
(* Netsim                                                              *)
(* ------------------------------------------------------------------ *)

let test_netsim_fig1 () =
  let inst = Fixtures.fig1_instance () in
  let r = Ns.route inst (P.of_list [ Fixtures.v5; Fixtures.v2 ]) in
  (* Routed link loads must sum to the paper's 12. *)
  Alcotest.(check (float 1e-9)) "total = Eq.1" 12.0 r.Ns.total_bandwidth;
  Alcotest.(check int) "all served" 0 (List.length r.Ns.unserved);
  (* f1 halved from its source: both its links carry 2. *)
  let load u v =
    let l = List.find (fun l -> l.Ns.src = u && l.Ns.dst = v) r.Ns.links in
    l.Ns.load
  in
  Alcotest.(check (float 1e-9)) "v5->v3 diminished" 2.0 (load Fixtures.v5 Fixtures.v3);
  Alcotest.(check (float 1e-9)) "v3->v1 diminished" 2.0 (load Fixtures.v3 Fixtures.v1);
  (* f2 unprocessed until its destination v2: full rate on both links. *)
  Alcotest.(check (float 1e-9)) "v6->v3 full (f2)" 2.0 (load Fixtures.v6 Fixtures.v3);
  (* v3->v2 carries f2 at full rate. *)
  Alcotest.(check (float 1e-9)) "v3->v2 full" 2.0 (load Fixtures.v3 Fixtures.v2)

let test_netsim_unserved () =
  let inst = Fixtures.fig1_instance () in
  let r = Ns.route inst (P.of_list [ Fixtures.v5 ]) in
  Alcotest.(check int) "three unserved" 3 (List.length r.Ns.unserved);
  Alcotest.(check (float 1e-9)) "matches analytic total"
    (Tdmd.Bandwidth.total inst (P.of_list [ Fixtures.v5 ]))
    r.Ns.total_bandwidth

let test_netsim_utilisation () =
  let inst = Fixtures.fig1_instance () in
  let r = Ns.route inst P.empty in
  Alcotest.(check (float 1e-9)) "unprocessed total" 16.0 r.Ns.total_bandwidth;
  let utils = Ns.link_utilisations r ~capacity:4.0 in
  (match utils with
  | (_, _, top) :: _ -> Alcotest.(check (float 1e-9)) "hottest = 4/4" 1.0 top
  | [] -> Alcotest.fail "expected loads");
  Alcotest.(check (list (pair int int))) "nothing congested at cap 4" []
    (Ns.congested r ~capacity:4.0);
  Alcotest.(check bool) "congested at cap 3" true (Ns.congested r ~capacity:3.0 <> []);
  Alcotest.(check bool) "render non-empty" true (String.length (Ns.render r) > 0)

(* The crucial property: routing and Eq. 1 agree on any instance and
   placement — the per-link float sum and the one render of the integer
   diminished volume, to 1e-12 relative, at λ = 0, 0.1, ..., 1. *)
let prop_netsim_matches_analytic =
  QCheck.Test.make ~name:"netsim link loads sum to the analytic objective"
    ~count:80
    QCheck.(pair (int_bound 100000) (int_range 3 15))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(float_of_int (Rng.int rng 11) /. 10.0)
      in
      let p =
        P.of_list (Rng.sample_without_replacement rng n (Rng.int rng n))
      in
      let r = Ns.route inst p and b = Tdmd.Bandwidth.total inst p in
      Float.abs (r.Ns.total_bandwidth -. b) <= 1e-12 *. Float.abs b)

(* ------------------------------------------------------------------ *)
(* Chain                                                               *)
(* ------------------------------------------------------------------ *)

let test_chain_spec () =
  Alcotest.check_raises "empty" (Invalid_argument "Chain.make_spec: empty chain")
    (fun () -> ignore (Tdmd.Chain.make_spec []));
  Alcotest.check_raises "negative"
    (Invalid_argument "Chain.make_spec: negative ratio") (fun () ->
      ignore (Tdmd.Chain.make_spec [ 0.5; -1.0 ]))

let test_chain_single_type_matches_tdmd () =
  (* A one-type chain is exactly the TDMD model. *)
  let inst = Fixtures.fig1_instance () in
  let spec = Tdmd.Chain.make_spec [ 0.5 ] in
  let deployment = [ (Fixtures.v5, 0); (Fixtures.v2, 0) ] in
  let _, bw = Tdmd.Chain.allocate spec inst deployment in
  Alcotest.(check (float 1e-9)) "fig1 two boxes" 12.0 bw;
  Alcotest.(check bool) "feasible" true (Tdmd.Chain.feasible spec inst deployment);
  Alcotest.(check bool) "infeasible without cover" false
    (Tdmd.Chain.feasible spec inst [ (Fixtures.v5, 0) ])

let test_chain_order_enforced () =
  (* Two types; type 1's instance before type 0's on the path is
     useless. *)
  let g = Tdmd_graph.Digraph.create 4 in
  List.iter (fun (a, b) -> Tdmd_graph.Digraph.add_undirected g a b)
    [ (3, 2); (2, 1); (1, 0) ];
  let f = Flow.make ~id:0 ~rate:2 ~path:[ 3; 2; 1; 0 ] in
  let inst = Tdmd.Instance.make ~graph:g ~flows:[ f ] ~lambda:0.5 in
  let spec = Tdmd.Chain.make_spec [ 0.5; 0.5 ] in
  (* t1 at v3 (source) cannot fire before t0 at v1. *)
  let services, _ = Tdmd.Chain.allocate spec inst [ (3, 1); (1, 0) ] in
  (match services with
  | [ s ] ->
    Alcotest.(check bool) "incomplete" false s.Tdmd.Chain.complete;
    Alcotest.(check (list (pair int int))) "only stage 0 fired" [ (0, 1) ]
      s.Tdmd.Chain.stages
  | _ -> Alcotest.fail "one flow expected");
  (* Correct order completes, both stages co-located allowed too. *)
  let services, bw = Tdmd.Chain.allocate spec inst [ (3, 0); (3, 1) ] in
  (match services with
  | [ s ] ->
    Alcotest.(check bool) "complete" true s.Tdmd.Chain.complete;
    (* Both at source: all 3 edges at rate 2*0.25 = 0.5. *)
    Alcotest.(check (float 1e-9)) "quartered" 1.5 s.Tdmd.Chain.consumption
  | _ -> Alcotest.fail "one flow expected");
  Alcotest.(check (float 1e-9)) "total" 1.5 bw

let brute_single_flow spec ~rate ~hops =
  (* Enumerate all non-decreasing position tuples. *)
  let m = Array.length spec.Tdmd.Chain.ratios in
  let best = ref infinity in
  let rec go i lo acc =
    if i = m then begin
      (* Evaluate: edge e in [0, hops): rate * prod of ratios of stages
         placed at positions <= e. *)
      let positions = List.rev acc in
      let cost = ref 0.0 in
      for e = 0 to hops - 1 do
        let stages_before =
          List.length (List.filter (fun q -> q <= e) positions)
        in
        let ratio = ref 1.0 in
        for j = 0 to stages_before - 1 do
          ratio := !ratio *. spec.Tdmd.Chain.ratios.(j)
        done;
        cost := !cost +. (float_of_int rate *. !ratio)
      done;
      if !cost < !best then best := !cost
    end
    else
      for q = lo to hops do
        go (i + 1) q (q :: acc)
      done
  in
  go 0 0 [];
  !best

let prop_chain_single_flow_optimal =
  QCheck.Test.make ~name:"single-flow chain DP = brute-force enumeration"
    ~count:100
    QCheck.(triple (int_bound 100000) (int_range 1 4) (int_range 1 8))
    (fun (seed, m, hops) ->
      let rng = Rng.create seed in
      let ratios = List.init m (fun _ -> Rng.float rng 2.0) in
      let spec = Tdmd.Chain.make_spec ratios in
      let rate = Rng.int_in rng 1 9 in
      let positions, value = Tdmd.Chain.single_flow spec ~rate ~hops in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      List.length positions = m
      && non_decreasing positions
      && Float.abs (value -. brute_single_flow spec ~rate ~hops) < 1e-9)

let test_chain_single_flow_positions () =
  (* Diminishing chain: every stage belongs at the source. *)
  let spec = Tdmd.Chain.make_spec [ 0.5; 0.8 ] in
  let positions, value = Tdmd.Chain.single_flow spec ~rate:10 ~hops:3 in
  Alcotest.(check (list int)) "all at source" [ 0; 0 ] positions;
  Alcotest.(check (float 1e-9)) "value" 12.0 value;
  (* Inflating chain: stages belong at the destination. *)
  let spec = Tdmd.Chain.make_spec [ 2.0 ] in
  let positions, value = Tdmd.Chain.single_flow spec ~rate:1 ~hops:4 in
  Alcotest.(check (list int)) "at destination" [ 4 ] positions;
  Alcotest.(check (float 1e-9)) "uninflated" 4.0 value

let test_chain_greedy () =
  let inst = Fixtures.fig1_instance () in
  let spec = Tdmd.Chain.make_spec [ 0.5 ] in
  let r = Tdmd.Chain.greedy ~k:3 spec inst in
  Alcotest.(check bool) "feasible" true r.Tdmd.Chain.feasible;
  (* One-type chain greedy must match the TDMD optimum here. *)
  Alcotest.(check (float 1e-9)) "matches fig1 k=3 optimum" 8.0 r.Tdmd.Chain.bandwidth;
  (* Two-type chain: budget must cover both types. *)
  let spec2 = Tdmd.Chain.make_spec [ 0.5; 0.0 ] in
  let r2 = Tdmd.Chain.greedy ~k:4 spec2 inst in
  Alcotest.(check bool) "within budget" true
    (List.length r2.Tdmd.Chain.deployment <= 4)

(* ------------------------------------------------------------------ *)
(* SVG + gravity workload                                              *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_svg_graph () =
  let inst = Fixtures.fig1_instance () in
  let svg =
    Tdmd_topo.Svg_render.graph ~highlight:[ 0 ] ~boxes:[ 4 ]
      inst.Tdmd.Instance.graph
  in
  Alcotest.(check bool) "svg doc" true (contains svg "<svg");
  Alcotest.(check bool) "has box square" true (contains svg "<rect x=");
  Alcotest.(check bool) "has circles" true (contains svg "<circle");
  Alcotest.(check bool) "closes" true (contains svg "</svg>")

let test_svg_tree () =
  let svg = Tdmd_topo.Svg_render.tree ~boxes:[ 1 ] (Fixtures.fig5_tree ()) in
  Alcotest.(check bool) "svg doc" true (contains svg "<svg");
  Alcotest.(check bool) "8 labels" true (contains svg ">7</text>")

let test_gravity_flows () =
  let rng = Rng.create 63 in
  let ark = Tdmd_topo.Ark.generate rng ~n:40 in
  let g = ark.Tdmd_topo.Ark.graph in
  let dests = ark.Tdmd_topo.Ark.hubs in
  let flows =
    Tdmd_traffic.Workload.gravity_flows rng g ~dests
      ~rates:(Tdmd_traffic.Rate_dist.Constant 2) ~density:0.4 ~link_capacity:30 ()
  in
  Alcotest.(check bool) "flows exist" true (flows <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "valid" true (Flow.validate g f = Ok ());
      Alcotest.(check bool) "to hub" true (List.mem (Flow.dst f) dests))
    flows;
  (* Hub-adjacent sources should be over-represented vs uniform: check
     that the mean degree of sources exceeds the graph's mean degree. *)
  let degree v =
    List.length
      (List.sort_uniq compare
         (Tdmd_graph.Digraph.succ g v @ Tdmd_graph.Digraph.pred g v))
  in
  let n = Tdmd_graph.Digraph.vertex_count g in
  let mean_deg =
    float_of_int (List.fold_left (fun acc v -> acc + degree v) 0 (Listx.range 0 (n - 1)))
    /. float_of_int n
  in
  let src_deg =
    Listx.sum_by (fun f -> float_of_int (degree (Flow.src f))) flows
    /. float_of_int (List.length flows)
  in
  Alcotest.(check bool)
    (Printf.sprintf "degree-biased sources (%.2f > %.2f)" src_deg mean_deg)
    true (src_deg > mean_deg)

let suite =
  [
    Alcotest.test_case "netsim: fig1 link loads" `Quick test_netsim_fig1;
    Alcotest.test_case "netsim: unserved flows" `Quick test_netsim_unserved;
    Alcotest.test_case "netsim: utilisation + congestion" `Quick
      test_netsim_utilisation;
    QCheck_alcotest.to_alcotest prop_netsim_matches_analytic;
    Alcotest.test_case "chain: spec validation" `Quick test_chain_spec;
    Alcotest.test_case "chain: one type = TDMD" `Quick
      test_chain_single_type_matches_tdmd;
    Alcotest.test_case "chain: order enforced" `Quick test_chain_order_enforced;
    QCheck_alcotest.to_alcotest prop_chain_single_flow_optimal;
    Alcotest.test_case "chain: single-flow positions" `Quick
      test_chain_single_flow_positions;
    Alcotest.test_case "chain: greedy" `Quick test_chain_greedy;
    Alcotest.test_case "svg: general graph" `Quick test_svg_graph;
    Alcotest.test_case "svg: tree" `Quick test_svg_tree;
    Alcotest.test_case "traffic: gravity model" `Quick test_gravity_flows;
  ]
