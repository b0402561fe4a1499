(* WAN optimizers on a measurement-infrastructure topology.

   Citrix CloudBridge-style WAN optimizers compress traffic down to a
   fraction of its original volume (the paper quotes up to 80%
   reduction, i.e. lambda ~ 0.2-0.8).  We place a limited number of them
   on an Ark-like WAN where monitor sites send flows to hub collectors,
   and compare GTP with the paper's two baselines across several
   compression strengths.

   Run with:  dune exec examples/wan_optimizer.exe *)

open Tdmd_prelude

let () =
  let rng = Rng.create 77 in
  let ark = Tdmd_topo.Ark.generate rng ~n:48 in
  let graph, dests = Tdmd_topo.Ark.general_of rng ark ~size:34 in
  let flows =
    Tdmd_traffic.Workload.general_flows rng graph ~dests
      ~rates:(Tdmd_traffic.Rate_dist.Caida_like { r_max = 40 })
      ~density:0.5 ~link_capacity:50 ()
  in
  Format.printf "WAN: %d sites, %d collector sites, %d flows@."
    (Tdmd_graph.Digraph.vertex_count graph)
    (List.length dests) (List.length flows);

  let k = 9 in
  Format.printf "Budget: %d WAN optimizer appliances@.@." k;
  let t =
    Table.create [ "lambda"; "no optimizers"; "Random"; "Best-effort"; "GTP"; "GTP saves" ]
  in
  List.iter
    (fun lambda ->
      let inst = Tdmd.Instance.make ~graph ~flows ~lambda in
      let volume = float_of_int (Tdmd.Instance.total_path_volume inst) in
      let rand = Tdmd.Baselines.random (Rng.create 5) ~k inst in
      let be = Tdmd.Baselines.best_effort ~k inst in
      let gtp = Tdmd.Gtp.run ~budget:k inst in
      Table.add_row t
        [
          Table.cell_float lambda;
          Table.cell_float volume;
          Table.cell_float rand.Tdmd.Solver_intf.bandwidth;
          Table.cell_float be.Tdmd.Solver_intf.bandwidth;
          Table.cell_float gtp.Tdmd.Solver_intf.bandwidth;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (gtp.Tdmd.Solver_intf.bandwidth /. volume)));
        ])
    [ 0.2; 0.4; 0.6; 0.8 ];
  Table.print t;

  (* Where does GTP put the boxes?  Hubs first - sharing beats earliness
     when the budget is tight. *)
  let inst = Tdmd.Instance.make ~graph ~flows ~lambda:0.5 in
  let gtp = Tdmd.Gtp.run ~budget:k inst in
  Format.printf "@.GTP deployment at lambda=0.5: %a@." Tdmd.Placement.pp
    gtp.Tdmd.Solver_intf.placement;
  Format.printf "Greedy (1 - 1/e) guarantee held with %d oracle calls.@."
    (Tdmd_obs.Telemetry.get_count gtp.Tdmd.Solver_intf.telemetry "oracle_calls")
