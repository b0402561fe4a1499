open Tdmd_prelude
module Rd = Tdmd_traffic.Rate_dist
module W = Tdmd_traffic.Workload
module Rt = Tdmd_tree.Rooted_tree

let test_rate_bounds () =
  let rng = Rng.create 9 in
  let check_dist name dist lo hi =
    for _ = 1 to 500 do
      let r = Rd.sample dist rng in
      if r < lo || r > hi then
        Alcotest.failf "%s: rate %d outside [%d,%d]" name r lo hi
    done
  in
  check_dist "constant" (Rd.Constant 4) 4 4;
  check_dist "uniform" (Rd.Uniform (2, 6)) 2 6;
  check_dist "pareto" (Rd.Pareto_int { alpha = 1.3; x_min = 3; cap = 40 }) 3 40;
  check_dist "caida" (Rd.Caida_like { r_max = 50 }) 1 50

let test_caida_is_heavy_tailed () =
  let rng = Rng.create 10 in
  let dist = Rd.Caida_like { r_max = 50 } in
  let n = 5000 in
  let samples = List.init n (fun _ -> Rd.sample dist rng) in
  let mice = List.length (List.filter (fun r -> r <= 2) samples) in
  let elephants = List.length (List.filter (fun r -> r >= 10) samples) in
  (* ~80% mice, a few percent elephants: the property that makes
     placement matter. *)
  Alcotest.(check bool) "mice fraction ~0.8" true
    (float_of_int mice /. float_of_int n > 0.7);
  Alcotest.(check bool) "some elephants" true (elephants > 0);
  Alcotest.(check bool) "elephants are a minority" true (elephants * 4 < n)

(* The analytic expected rate (an estimate for the mixtures), against
   which the sampler's empirical mean is checked. *)
let mean : Rd.t -> float = function
  | Rd.Constant r -> float_of_int r
  | Rd.Uniform (lo, hi) -> float_of_int (lo + hi) /. 2.0
  | Rd.Pareto_int { alpha; x_min; cap } ->
    if alpha > 1.0 then
      Float.min (float_of_int cap) (alpha *. float_of_int x_min /. (alpha -. 1.0))
    else float_of_int cap /. 2.0
  | Rd.Caida_like { r_max } ->
    let mid = float_of_int (3 + max 3 (r_max / 5)) /. 2.0 in
    let tail_lo = float_of_int (max 4 (r_max / 5)) in
    let tail = Float.min (float_of_int r_max) (1.3 *. tail_lo /. 0.3) in
    (0.80 *. 1.5) +. (0.15 *. mid) +. (0.05 *. tail)

let test_mean_estimates () =
  Alcotest.(check (float 1e-9)) "constant mean" 4.0 (mean (Rd.Constant 4));
  Alcotest.(check (float 1e-9)) "uniform mean" 4.0 (mean (Rd.Uniform (2, 6)));
  let rng = Rng.create 11 in
  let dist = Rd.Caida_like { r_max = 20 } in
  let n = 20000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rd.sample dist rng
  done;
  let empirical = float_of_int !sum /. float_of_int n in
  let predicted = mean dist in
  Alcotest.(check bool)
    (Printf.sprintf "mean estimate close (pred %.2f emp %.2f)" predicted empirical)
    true
    (Float.abs (predicted -. empirical) /. empirical < 0.35)

let test_tree_flows_density () =
  let rng = Rng.create 12 in
  let tree = Tdmd_topo.Topo_tree.random_attachment rng 20 in
  let flows =
    W.tree_flows rng tree ~rates:(Rd.Constant 2) ~density:0.5 ~link_capacity:20 ()
  in
  Alcotest.(check bool) "some flows" true (flows <> []);
  let d = W.density ~links:(W.tree_link_count tree) ~link_capacity:20 flows in
  Alcotest.(check bool) "density reached" true (d >= 0.5);
  (* One extra flow at most overshoots by its own volume. *)
  Alcotest.(check bool) "no wild overshoot" true (d < 0.7);
  (* All paths run leaf -> root. *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "starts at leaf" true
        (Rt.is_leaf tree (Tdmd_flow.Flow.src f));
      Alcotest.(check int) "ends at root" (Rt.root tree) (Fixtures.dst f))
    flows

let test_general_flows () =
  let rng = Rng.create 13 in
  let g = Tdmd_topo.Topo_general.erdos_renyi rng 15 ~p:0.3 in
  let dests = [ 0; 1 ] in
  let flows =
    W.general_flows rng g ~dests ~rates:(Rd.Uniform (1, 5)) ~density:0.4
      ~link_capacity:30 ()
  in
  Alcotest.(check bool) "some flows" true (flows <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "valid path" true (Tdmd_flow.Flow.validate g f = Ok ());
      Alcotest.(check bool) "destination is red node" true
        (List.mem (Fixtures.dst f) dests))
    flows;
  let d = W.density ~links:(W.general_link_count g) ~link_capacity:30 flows in
  Alcotest.(check bool) "density reached" true (d >= 0.4)

let test_empty_cases () =
  let rng = Rng.create 14 in
  let single = Fixtures.path_tree 1 in
  Alcotest.(check (list reject)) "no flows on single vertex" []
    (W.tree_flows rng single ~rates:(Rd.Constant 1) ~density:0.5 ());
  let g = Tdmd_graph.Digraph.create 3 in
  Alcotest.(check (list reject)) "no flows without links" []
    (W.general_flows rng g ~dests:[ 0 ] ~rates:(Rd.Constant 1) ~density:0.5 ())

let suite =
  [
    Alcotest.test_case "rates: bounds" `Quick test_rate_bounds;
    Alcotest.test_case "rates: caida heavy tail" `Quick test_caida_is_heavy_tailed;
    Alcotest.test_case "rates: mean estimates" `Quick test_mean_estimates;
    Alcotest.test_case "workload: tree density targeting" `Quick
      test_tree_flows_density;
    Alcotest.test_case "workload: general flows" `Quick test_general_flows;
    Alcotest.test_case "workload: degenerate inputs" `Quick test_empty_cases;
  ]
