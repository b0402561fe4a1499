(* Candidate moves (additions while under budget, then one-for-one
   swaps) are scored read-only by [Inc_oracle.scan_moves], one call per
   outgoing box (−1 for the additions), each pricing the deployment
   without that box off the oracle's gain ledger.  The accepted move is
   applied to the same oracle in place.  Probe order and tie-breaking (first
   strictly-better candidate wins) must stay those of the probe-and-undo
   reference in test/reference.ml: the differential tests compare the
   result and the "evaluations"/"delta_evals" counts with it. *)
let refine ?(max_rounds = 1000) ~k instance t =
  if not (Inc_oracle.is_feasible t) then
    invalid_arg "Local_search.refine: infeasible starting deployment";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "local-search";
  let started = Tdmd_obs.Clock.now_ns () in
  let n = Instance.vertex_count instance in
  let m = Inc_oracle.no_move () in
  let rec round current swaps rounds_left =
    if rounds_left = 0 then swaps
    else begin
      m.Inc_oracle.incoming <- -1;
      (* Pure additions while under budget, then one-for-one swaps,
         outgoing boxes in increasing vertex order. *)
      if Inc_oracle.size t < k then Inc_oracle.scan_moves t ~outgoing:(-1) ~current m;
      for out = 0 to n - 1 do
        if Inc_oracle.mem t out then Inc_oracle.scan_moves t ~outgoing:out ~current m
      done;
      if m.Inc_oracle.incoming < 0 then swaps
      else begin
        if m.Inc_oracle.outgoing >= 0 then Inc_oracle.remove t m.Inc_oracle.outgoing;
        Inc_oracle.add t m.Inc_oracle.incoming;
        round m.Inc_oracle.after (swaps + 1) (rounds_left - 1)
      end
    end
  in
  let swaps = round (Inc_oracle.diminished_volume t) 0 max_rounds in
  let placement = Inc_oracle.placement t in
  if m.Inc_oracle.probes > 0 then
    Tdmd_obs.Telemetry.count tel "delta_evals" m.Inc_oracle.probes;
  let oracle_ns = Int64.sub (Tdmd_obs.Clock.now_ns ()) started in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "swaps" swaps;
  Tdmd_obs.Telemetry.count tel "evaluations" m.Inc_oracle.evaluations;
  Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int oracle_ns);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Solver_intf.outcome ~lambda:instance.Instance.lambda
    ~total:(Instance.total_path_volume instance) ~placement
    ~volume:(Inc_oracle.diminished_volume t) ~feasible:true ~telemetry:tel
