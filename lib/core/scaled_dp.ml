module Flow = Tdmd_flow.Flow

let solve ~k ~theta inst =
  if theta < 1 then invalid_arg "Scaled_dp.solve: theta must be >= 1";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "theta" theta;
  Tdmd_obs.Telemetry.span_open tel "scaled-dp";
  let scaled_flows =
    Array.to_list inst.Instance.Tree.flows
    |> List.map (fun f ->
           let rate = (f.Flow.rate + theta - 1) / theta in
           Flow.make ~id:f.Flow.id ~rate ~path:(Array.to_list f.Flow.path))
  in
  let scaled =
    Instance.Tree.make ~tree:inst.Instance.Tree.tree ~flows:scaled_flows
      ~lambda:inst.Instance.Tree.lambda
  in
  let r = Dp.solve ~k scaled in
  let general = Instance.Tree.to_general inst in
  Tdmd_obs.Telemetry.span_close tel;
  (* The inner DP's spans and counters (its "states" are the scaled
     instance's) nest under this run's record. *)
  Tdmd_obs.Telemetry.merge ~into:tel r.Solver_intf.telemetry;
  Tdmd_obs.Telemetry.count tel "scaled_states"
    (Tdmd_obs.Telemetry.get_count r.Solver_intf.telemetry "states");
  Solver_intf.outcome ~placement:r.Solver_intf.placement
    ~bandwidth:(Bandwidth.total general r.Solver_intf.placement)
    ~feasible:r.Solver_intf.feasible ~telemetry:tel
