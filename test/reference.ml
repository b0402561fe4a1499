(* Reference implementations for the differential tests: the
   straightforward forms the library's flat versions replaced, kept
   verbatim so every optimised path can be checked against them.

   - the objective scans ([serve], [all], [total], [diminished_volume],
     [is_feasible], [unserved]) test membership with [Placement.mem], a
     list scan per path vertex;
   - [refine] is the probe-and-undo local search: every candidate is
     applied to the oracle with [add], scored, and rolled back with
     [undo], and the oracle is rebuilt after every accepted move. *)

module Flow = Tdmd_flow.Flow
module Allocation = Tdmd.Allocation
module Placement = Tdmd.Placement
module Inc_oracle = Tdmd.Inc_oracle

let serve placement f =
  let path = f.Flow.path in
  let rec scan i =
    if i = Array.length path then Allocation.Unserved
    else if Placement.mem placement path.(i) then
      Allocation.Served_at { vertex = path.(i); l = i }
    else scan (i + 1)
  in
  scan 0

let all instance placement = Array.map (serve placement) instance.Tdmd.Instance.flows

let is_feasible instance placement =
  Array.for_all
    (fun f -> serve placement f <> Allocation.Unserved)
    instance.Tdmd.Instance.flows

let unserved instance placement =
  Array.to_list instance.Tdmd.Instance.flows
  |> List.filter (fun f -> serve placement f = Allocation.Unserved)

let total instance placement =
  let lambda = instance.Tdmd.Instance.lambda in
  Array.fold_left
    (fun acc f -> acc +. Tdmd.Bandwidth.flow_consumption ~lambda f (serve placement f))
    0.0 instance.Tdmd.Instance.flows

let diminished_volume instance placement =
  Array.fold_left
    (fun acc f ->
      match serve placement f with
      | Allocation.Unserved -> acc
      | Allocation.Served_at { l; _ } -> acc + (f.Flow.rate * (Flow.hop_count f - l)))
    0 instance.Tdmd.Instance.flows

let refine ?(max_rounds = 1000) ~k instance placement =
  if not (is_feasible instance placement) then
    invalid_arg "Local_search.refine: infeasible starting deployment";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "local-search";
  let n = Tdmd.Instance.vertex_count instance in
  let evaluations = ref 0 in
  let oracle_ns = ref 0L in
  let rec round t placement current swaps rounds_left =
    if rounds_left = 0 then (placement, current, swaps)
    else begin
      let best = ref None in
      (* [t] currently reflects the candidate; [rebuild] materialises it
         as a Placement.t only when it becomes the new best. *)
      let consider rebuild =
        if Inc_oracle.is_feasible t then begin
          incr evaluations;
          let bw = Inc_oracle.bandwidth t in
          match !best with
          | Some (_, b) when b <= bw -> ()
          | _ -> if bw < current -. 1e-9 then best := Some (rebuild (), bw)
        end
      in
      let probe v rebuild =
        Tdmd_obs.Telemetry.count tel "delta_evals" 1;
        let t0 = Tdmd_obs.Clock.now_ns () in
        Inc_oracle.add t v;
        consider rebuild;
        Inc_oracle.undo t;
        oracle_ns := Int64.add !oracle_ns (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0)
      in
      (* Pure additions while under budget. *)
      if Placement.size placement < k then
        for v = 0 to n - 1 do
          if not (Placement.mem placement v) then
            probe v (fun () -> Placement.add placement v)
        done;
      (* One-for-one swaps. *)
      List.iter
        (fun out ->
          Inc_oracle.remove t out;
          let without = Placement.remove placement out in
          for v = 0 to n - 1 do
            if (not (Placement.mem placement v)) && v <> out then
              probe v (fun () -> Placement.add without v)
          done;
          Inc_oracle.undo t)
        (Placement.to_list placement);
      match !best with
      | None -> (placement, current, swaps)
      | Some (next, bw) ->
        round (Inc_oracle.of_list instance (Placement.to_list next)) next bw
          (swaps + 1) (rounds_left - 1)
    end
  in
  let t0 = Inc_oracle.of_list instance (Placement.to_list placement) in
  let start_bw = Inc_oracle.bandwidth t0 in
  let placement, _, swaps = round t0 placement start_bw 0 max_rounds in
  let bandwidth = total instance placement in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "swaps" swaps;
  Tdmd_obs.Telemetry.count tel "evaluations" !evaluations;
  Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int !oracle_ns);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  {
    Tdmd.Local_search.placement;
    bandwidth;
    swaps;
    evaluations = !evaluations;
    telemetry = tel;
  }
