type report = {
  placement : Placement.t;
  bandwidth : float;
  swaps : int;
  evaluations : int;
  telemetry : Tdmd_obs.Telemetry.t;
}

(* Candidate moves (additions while under budget, then one-for-one
   swaps) are scored read-only on the incremental oracle: a swap
   removes [out] once, then each incoming vertex is priced by
   [newly_served] (does it serve every flow left unserved?) and
   [marginal_volume] (the diminished volume it would add) — no add/undo
   writes per probe.  The accepted move is applied to the same oracle in
   place.  Probe order and tie-breaking (first strictly-better candidate
   wins) must stay those of the probe-and-undo reference in
   test/reference.ml: the differential tests compare the result and the
   [evaluations]/[delta_evals] counts with it. *)
let refine ?(max_rounds = 1000) ~k instance placement =
  if not (Allocation.is_feasible instance placement) then
    invalid_arg "Local_search.refine: infeasible starting deployment";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "local-search";
  let started = Tdmd_obs.Clock.now_ns () in
  let n = Instance.vertex_count instance in
  let t = Inc_oracle.of_list instance (Placement.to_list placement) in
  let evaluations = ref 0 and probes = ref 0 in
  (* The round's best move: [best_in] < 0 when none yet, [best_out] < 0
     for a pure addition. *)
  let best_out = ref (-1) and best_in = ref (-1) and best_bw = ref 0.0 in
  (* Score adding [v] to the oracle's current deployment. *)
  let probe ~current out v =
    incr probes;
    let unserved = Inc_oracle.unserved_count t in
    if unserved = 0 || Inc_oracle.newly_served t v = unserved then begin
      incr evaluations;
      let bw =
        Inc_oracle.bandwidth_at t
          (Inc_oracle.diminished_volume t + Inc_oracle.marginal_volume t v)
      in
      if (!best_in < 0 || bw < !best_bw) && bw < current -. 1e-9 then begin
        best_out := out;
        best_in := v;
        best_bw := bw
      end
    end
  in
  let rec round current swaps rounds_left =
    if rounds_left = 0 then swaps
    else begin
      best_in := -1;
      (* Pure additions while under budget. *)
      if Inc_oracle.size t < k then
        for v = 0 to n - 1 do
          if not (Inc_oracle.mem t v) then probe ~current (-1) v
        done;
      (* One-for-one swaps, outgoing boxes in increasing vertex order;
         each removal is undone before the next. *)
      for out = 0 to n - 1 do
        if Inc_oracle.mem t out then begin
          Inc_oracle.remove t out;
          for v = 0 to n - 1 do
            if (not (Inc_oracle.mem t v)) && v <> out then probe ~current out v
          done;
          Inc_oracle.undo t
        end
      done;
      if !best_in < 0 then swaps
      else begin
        if !best_out >= 0 then Inc_oracle.remove t !best_out;
        Inc_oracle.add t !best_in;
        round !best_bw (swaps + 1) (rounds_left - 1)
      end
    end
  in
  let swaps = round (Inc_oracle.bandwidth t) 0 max_rounds in
  let placement = Inc_oracle.placement t in
  if !probes > 0 then Tdmd_obs.Telemetry.count tel "delta_evals" !probes;
  let oracle_ns = Int64.sub (Tdmd_obs.Clock.now_ns ()) started in
  (* Report the objective through the same summation as every other
     solver (identical mathematically; avoids mixing rounding styles in
     cross-solver comparisons). *)
  let bandwidth = Bandwidth.total instance placement in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "swaps" swaps;
  Tdmd_obs.Telemetry.count tel "evaluations" !evaluations;
  Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int oracle_ns);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  { placement; bandwidth; swaps; evaluations = !evaluations; telemetry = tel }
