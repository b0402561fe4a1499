open Tdmd_prelude

type series = {
  algorithm : string;
  points : Runner.point list;
}

type result = {
  fig_id : string;
  title : string;
  x_label : string;
  series : series list;
}

(* An algorithm is a figure label and its registry function, resolved
   through the shared solver registry (Tdmd.Solvers) so the experiments,
   CLI and bench all dispatch the same implementations.  Tree
   experiments run all five algorithms (Sec. 6.3); general experiments
   run Random / Best-effort / GTP (Sec. 6.4). *)
let resolve find (label, name) =
  match find name with
  | Some f -> (label, f)
  | None -> invalid_arg ("Experiments: unknown solver " ^ name)

let tree_algos =
  List.map (resolve Tdmd.Solvers.on_tree)
    [
      ("Random", "random");
      ("Best-effort", "best-effort");
      ("GTP", "gtp");
      ("HAT", "hat");
      ("DP", "dp");
    ]

let general_algos =
  List.map (resolve Tdmd.Solvers.find_general)
    [ ("Random", "random"); ("Best-effort", "best-effort"); ("GTP", "gtp") ]

(* Sweep drivers: [configure] maps a sweep value to the scenario and
   budget at that point.  Every algorithm scores the same instance draws
   (Runner.joint), per the paper's regeneration protocol. *)
(* TDMD_JOBS=<n> parallelises repetitions across domains (identical
   bandwidth numbers; timing noisier -- see Runner.joint). *)
let domains =
  match Sys.getenv_opt "TDMD_JOBS" with
  | Some s -> (match int_of_string_opt s with Some d when d >= 1 -> d | _ -> 1)
  | None -> 1

let joint_sweep ~seed ~reps ~xs ~configure ~build ~runs =
  let joint_points =
    List.map
      (fun x ->
        let scenario, k = configure x in
        Runner.joint ~domains
          ~seed:(seed + int_of_float (x *. 1000.0))
          ~reps ~x
          ~build:(fun rng -> build rng scenario)
          ~algos:
            (List.map
               (fun (name, run) ->
                 ( name,
                   fun inst rng ->
                     Runner.measure_outcome (fun () -> run ~rng ~k inst) ))
               runs))
      xs
  in
  List.map
    (fun (name, _) ->
      {
        algorithm = name;
        points =
          List.map (fun jp -> List.assoc name jp.Runner.by_algo) joint_points;
      })
    runs

let tree_sweep ~seed ~reps ~xs ~configure =
  joint_sweep ~seed ~reps ~xs ~configure ~build:Scenario.build_tree ~runs:tree_algos

let general_sweep ~seed ~reps ~xs ~configure =
  joint_sweep ~seed ~reps ~xs ~configure ~build:Scenario.build_general
    ~runs:general_algos

let make_result ~fig_id ~title ~x_label series = { fig_id; title; x_label; series }

(* ------------------------------------------------------------------ *)
(* Tree figures                                                        *)
(* ------------------------------------------------------------------ *)

let fig9 ?(seed = 9000) ?(reps = 5) () =
  let xs = List.map float_of_int [ 1; 4; 7; 10; 13; 16 ] in
  let series =
    tree_sweep ~seed ~reps ~xs ~configure:(fun x ->
        (Scenario.default_tree, int_of_float x))
  in
  make_result ~fig_id:"fig9" ~title:"Middlebox number constraint k in tree"
    ~x_label:"k" series

let fig10 ?(seed = 10000) ?(reps = 5) () =
  let xs = Listx.frange ~lo:0.0 ~hi:0.9 ~step:0.1 in
  let series =
    tree_sweep ~seed ~reps ~xs ~configure:(fun lambda ->
        ({ Scenario.default_tree with Scenario.lambda }, Scenario.default_tree.Scenario.k))
  in
  make_result ~fig_id:"fig10" ~title:"Traffic-changing ratio in tree"
    ~x_label:"lambda" series

let fig11 ?(seed = 11000) ?(reps = 5) () =
  let xs = Listx.frange ~lo:0.3 ~hi:0.8 ~step:0.1 in
  let series =
    tree_sweep ~seed ~reps ~xs ~configure:(fun density ->
        ({ Scenario.default_tree with Scenario.density }, Scenario.default_tree.Scenario.k))
  in
  make_result ~fig_id:"fig11" ~title:"Flow density in tree" ~x_label:"density" series

let fig12 ?(seed = 12000) ?(reps = 5) () =
  let xs = List.map float_of_int [ 12; 16; 20; 24; 28; 32 ] in
  let series =
    tree_sweep ~seed ~reps ~xs ~configure:(fun x ->
        ( { Scenario.default_tree with Scenario.size = int_of_float x },
          Scenario.default_tree.Scenario.k ))
  in
  make_result ~fig_id:"fig12" ~title:"Topology size in tree" ~x_label:"|V|" series

(* ------------------------------------------------------------------ *)
(* General-topology figures                                            *)
(* ------------------------------------------------------------------ *)

let fig13 ?(seed = 13000) ?(reps = 5) () =
  let xs = List.map float_of_int [ 12; 14; 16; 18; 20; 22 ] in
  let series =
    general_sweep ~seed ~reps ~xs ~configure:(fun x ->
        (Scenario.default_general, int_of_float x))
  in
  make_result ~fig_id:"fig13" ~title:"Middlebox number k in a general topology"
    ~x_label:"k" series

let fig14 ?(seed = 14000) ?(reps = 5) () =
  let xs = Listx.frange ~lo:0.0 ~hi:0.9 ~step:0.1 in
  let series =
    general_sweep ~seed ~reps ~xs ~configure:(fun lambda ->
        ( { Scenario.default_general with Scenario.lambda },
          Scenario.default_general.Scenario.k ))
  in
  make_result ~fig_id:"fig14" ~title:"Traffic-changing ratio in a general topology"
    ~x_label:"lambda" series

let fig15 ?(seed = 15000) ?(reps = 5) () =
  let xs = Listx.frange ~lo:0.3 ~hi:0.8 ~step:0.1 in
  let series =
    general_sweep ~seed ~reps ~xs ~configure:(fun density ->
        ( { Scenario.default_general with Scenario.density },
          Scenario.default_general.Scenario.k ))
  in
  make_result ~fig_id:"fig15" ~title:"Flow density in a general topology"
    ~x_label:"density" series

let fig16 ?(seed = 16000) ?(reps = 5) () =
  let xs = List.map float_of_int [ 12; 20; 28; 36; 44; 52 ] in
  let series =
    general_sweep ~seed ~reps ~xs ~configure:(fun x ->
        ( { Scenario.default_general with Scenario.size = int_of_float x },
          Scenario.default_general.Scenario.k ))
  in
  make_result ~fig_id:"fig16" ~title:"Topology size in a general topology"
    ~x_label:"|V|" series

(* ------------------------------------------------------------------ *)
(* Fig. 17: spam filters (lambda = 0), k x density grids               *)
(* ------------------------------------------------------------------ *)

type grid = {
  fig_id : string;
  title : string;
  k_values : int list;
  density_values : float list;
  cells : (int * float * float) list;
}

let grid_of ~fig_id ~title ~k_values ~density_values ~cell =
  let cells =
    List.concat_map
      (fun k ->
        List.map (fun density -> (k, density, cell ~k ~density)) density_values)
      k_values
  in
  { fig_id; title; k_values; density_values; cells }

let fig17_tree ?(seed = 17000) ?(reps = 3) () =
  let k_values = [ 4; 8; 12 ] and density_values = [ 0.4; 0.6; 0.8 ] in
  grid_of ~fig_id:"fig17a" ~title:"Spam filters (lambda=0): GTP in tree" ~k_values
    ~density_values ~cell:(fun ~k ~density ->
      let scenario =
        { Scenario.default_tree with Scenario.lambda = 0.0; Scenario.density }
      in
      let point =
        Runner.repeat
          ~seed:(seed + (k * 100) + int_of_float (density *. 10.0))
          ~reps ~x:density
          (fun rng ->
            let inst = Scenario.build_tree rng scenario in
            Runner.measure
              (fun () -> Tdmd.Gtp.run ~budget:k (Tdmd.Instance.Tree.to_general inst))
              (fun r -> (r.Tdmd.Solver_intf.bandwidth, r.Tdmd.Solver_intf.feasible)))
      in
      point.Runner.bandwidth.Stats.mean)

let fig17_general ?(seed = 17500) ?(reps = 3) () =
  let k_values = [ 6; 10; 14 ] and density_values = [ 0.4; 0.6; 0.8 ] in
  grid_of ~fig_id:"fig17b" ~title:"Spam filters (lambda=0): GTP in general topology"
    ~k_values ~density_values ~cell:(fun ~k ~density ->
      let scenario =
        { Scenario.default_general with Scenario.lambda = 0.0; Scenario.density }
      in
      let point =
        Runner.repeat
          ~seed:(seed + (k * 100) + int_of_float (density *. 10.0))
          ~reps ~x:density
          (fun rng ->
            let inst = Scenario.build_general rng scenario in
            Runner.measure
              (fun () -> Tdmd.Gtp.run ~budget:k inst)
              (fun r -> (r.Tdmd.Solver_intf.bandwidth, r.Tdmd.Solver_intf.feasible)))
      in
      point.Runner.bandwidth.Stats.mean)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  label : string;
  metric : string;
  value : float;
}

let counter (o : Tdmd.Solver_intf.outcome) name =
  float_of_int (Tdmd_obs.Telemetry.get_count o.Tdmd.Solver_intf.telemetry name)

let ablation ?(seed = 18000) ?(reps = 5) () =
  let rows = ref [] in
  let push label metric value = rows := { label; metric; value } :: !rows in
  let master = Rng.create seed in
  (* CELF vs plain GTP: identical bandwidth, fewer oracle calls. *)
  let plain_calls = Stats.Welford.create () and celf_calls = Stats.Welford.create () in
  let bw_gap = Stats.Welford.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let inst = Scenario.build_general rng Scenario.default_general in
    let a = Tdmd.Gtp.run ~budget:Scenario.default_general.Scenario.k inst in
    let b = Tdmd.Gtp.run_celf ~budget:Scenario.default_general.Scenario.k inst in
    Stats.Welford.add plain_calls (counter a "oracle_calls");
    Stats.Welford.add celf_calls (counter b "oracle_calls");
    Stats.Welford.add bw_gap
      (Float.abs (a.Tdmd.Solver_intf.bandwidth -. b.Tdmd.Solver_intf.bandwidth))
  done;
  push "GTP plain" "oracle calls" (Stats.Welford.mean plain_calls);
  push "GTP CELF" "oracle calls" (Stats.Welford.mean celf_calls);
  push "GTP CELF" "bandwidth gap vs plain" (Stats.Welford.mean bw_gap);
  (* Rate-scaled DP: value loss and state savings at theta = 4. *)
  let loss = Stats.Welford.create () in
  let state_ratio = Stats.Welford.create () in
  let time_ratio = Stats.Welford.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let inst = Scenario.build_tree rng Scenario.default_tree in
    let k = Scenario.default_tree.Scenario.k in
    let (dp, dp_t) = Timer.time (fun () -> Tdmd.Dp.solve ~k inst) in
    let (sc, sc_t) = Timer.time (fun () -> Tdmd.Scaled_dp.solve ~k ~theta:4 inst) in
    if dp.Tdmd.Solver_intf.bandwidth > 0.0 then
      Stats.Welford.add loss
        ((sc.Tdmd.Solver_intf.bandwidth -. dp.Tdmd.Solver_intf.bandwidth)
        /. dp.Tdmd.Solver_intf.bandwidth);
    Stats.Welford.add state_ratio
      (counter sc "scaled_states" /. counter dp "states");
    if dp_t > 0.0 then Stats.Welford.add time_ratio (sc_t /. dp_t)
  done;
  push "Scaled DP (theta=4)" "relative bandwidth loss" (Stats.Welford.mean loss);
  push "Scaled DP (theta=4)" "state ratio vs exact DP" (Stats.Welford.mean state_ratio);
  push "Scaled DP (theta=4)" "time ratio vs exact DP" (Stats.Welford.mean time_ratio);
  (* HAT merge effort at the default scenario. *)
  let merges = Stats.Welford.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let inst = Scenario.build_tree rng Scenario.default_tree in
    let r = Tdmd.Hat.run ~k:Scenario.default_tree.Scenario.k inst in
    Stats.Welford.add merges (counter r "merges")
  done;
  push "HAT" "merge rounds" (Stats.Welford.mean merges);
  (* Local search refinement: how much of the greedy-to-optimal gap the
     swap pass closes at the default tree scenario. *)
  let ls_gain_gtp = Stats.Welford.create () in
  let ls_swaps = Stats.Welford.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let inst = Scenario.build_tree rng Scenario.default_tree in
    let general = Tdmd.Instance.Tree.to_general inst in
    let k = Scenario.default_tree.Scenario.k in
    let gtp = Tdmd.Gtp.run ~budget:k general in
    if gtp.Tdmd.Solver_intf.feasible then begin
      let r = Tdmd.Local_search.refine ~k general gtp.Tdmd.Solver_intf.placement in
      if gtp.Tdmd.Solver_intf.bandwidth > 0.0 then
        Stats.Welford.add ls_gain_gtp
          ((gtp.Tdmd.Solver_intf.bandwidth -. r.Tdmd.Solver_intf.bandwidth)
          /. gtp.Tdmd.Solver_intf.bandwidth);
      Stats.Welford.add ls_swaps (counter r "swaps")
    end
  done;
  push "Local search on GTP" "relative bandwidth gain" (Stats.Welford.mean ls_gain_gtp);
  push "Local search on GTP" "improving swaps" (Stats.Welford.mean ls_swaps);
  (* Binary-tree DP (Eqs. 7-8 verbatim) vs the general merge DP: values
     must coincide; compare their runtimes on random binary trees. *)
  let agree = Stats.Welford.create () in
  let time_ratio_bin = Stats.Welford.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let tree = Tdmd_topo.Topo_tree.random_binary rng 21 in
    let flows =
      Tdmd_traffic.Workload.tree_flows rng tree
        ~rates:Scenario.default_tree.Scenario.rates
        ~density:Scenario.default_tree.Scenario.density
        ~link_capacity:Scenario.default_tree.Scenario.link_capacity ()
    in
    let inst = Tdmd.Instance.Tree.make ~tree ~flows ~lambda:0.5 in
    let k = Scenario.default_tree.Scenario.k in
    let general_dp, t_gen = Timer.time (fun () -> Tdmd.Dp.solve ~k inst) in
    let binary_dp, t_bin = Timer.time (fun () -> Tdmd.Dp_binary.solve ~k inst) in
    Stats.Welford.add agree
      (Float.abs
         (general_dp.Tdmd.Solver_intf.bandwidth -. binary_dp.Tdmd.Solver_intf.bandwidth));
    if t_gen > 0.0 then Stats.Welford.add time_ratio_bin (t_bin /. t_gen)
  done;
  push "Binary DP (eqs 7-8)" "value gap vs general DP" (Stats.Welford.mean agree);
  push "Binary DP (eqs 7-8)" "time ratio vs general DP" (Stats.Welford.mean time_ratio_bin);
  (* Incremental maintenance vs from-scratch GTP over a flow-churn
     timeline: quality ratio and placement moves. *)
  let ratio = Stats.Welford.create () in
  let inc_moves = Stats.Welford.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let ark = Tdmd_topo.Ark.generate rng ~n:40 in
    let graph, dests = Tdmd_topo.Ark.general_of rng ark ~size:24 in
    let dest_arr = Array.of_list dests in
    let n = Tdmd_graph.Digraph.vertex_count graph in
    let k = 6 in
    let timeline =
      Tdmd_traffic.Temporal.generate rng ~horizon:60.0 ~mean_interarrival:1.5
        ~mean_lifetime:12.0 ~draw_flow:(fun rng id ->
          let rec draw () =
            let src = Rng.int rng n in
            let dst = Rng.choose rng dest_arr in
            if src = dst then draw ()
            else begin
              match Tdmd_graph.Bfs.shortest_path graph ~src ~dst with
              | Some path -> Tdmd_flow.Flow.make ~id ~rate:(Rng.int_in rng 1 8) ~path
              | None -> draw ()
            end
          in
          draw ())
    in
    let inc = Tdmd.Incremental.create ~graph ~lambda:0.5 ~k () in
    List.iter
      (fun (_, ev) ->
        (match ev with
        | Tdmd_traffic.Temporal.Arrival f -> Tdmd.Incremental.arrive inc f
        | Tdmd_traffic.Temporal.Departure id -> Tdmd.Incremental.depart inc id);
        if Tdmd.Incremental.flows inc <> [] && Tdmd.Incremental.feasible inc then begin
          let scratch = Tdmd.Gtp.run ~budget:k (Tdmd.Incremental.instance inc) in
          if scratch.Tdmd.Solver_intf.bandwidth > 0.0 then
            Stats.Welford.add ratio
              (Tdmd.Incremental.bandwidth inc /. scratch.Tdmd.Solver_intf.bandwidth)
        end)
      timeline;
    Stats.Welford.add inc_moves (float_of_int (Tdmd.Incremental.moves inc))
  done;
  push "Incremental vs scratch GTP" "bandwidth ratio (mean)" (Stats.Welford.mean ratio);
  push "Incremental vs scratch GTP" "placement moves per timeline"
    (Stats.Welford.mean inc_moves);
  List.rev !rows
