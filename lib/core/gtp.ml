(* Every oracle evaluation of the greedy phase is one marginal or
   from-scratch value call, which [Submodular] already counts as
   [oracle_calls]: that count is published as "delta_evals" once the
   phase ends, and the phase's wall time as "oracle_ns" — no per-call
   counter update or clock read in the loop. *)
let run_with ~label selector ?budget instance =
  let budget =
    match budget with Some k -> k | None -> Instance.vertex_count instance
  in
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" budget;
  let oracle = Bandwidth.oracle instance in
  (* Spend the whole budget: the greedy keeps deploying while any vertex
     has positive marginal decrement (bandwidth only improves), and the
     fix-up then covers any still-unserved flows. *)
  Tdmd_obs.Telemetry.with_span tel label (fun () ->
      let t0 = Tdmd_obs.Clock.now_ns () in
      let sel =
        Tdmd_obs.Telemetry.with_span tel "greedy" (fun () ->
            selector ~stop:(fun _ -> false) ~k:budget oracle)
      in
      let oracle_ns = Int64.sub (Tdmd_obs.Clock.now_ns ()) t0 in
      let calls = sel.Tdmd_submod.Submodular.oracle_calls in
      if calls > 0 then Tdmd_obs.Telemetry.count tel "delta_evals" calls;
      let fixed = Inc_oracle.create instance in
      let chosen =
        Tdmd_obs.Telemetry.with_span tel "cover-fixup" (fun () ->
            Cover_fixup.within fixed ~chosen:sel.Tdmd_submod.Submodular.chosen ~budget)
      in
      (* [fixed] is the oracle [Cover_fixup.within] left holding
         [chosen]: it answers feasibility without a rescan. *)
      let placement = Placement.of_list chosen in
      Tdmd_obs.Telemetry.count tel "oracle_calls" calls;
      Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
      Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int oracle_ns);
      Solver_intf.outcome ~placement
        ~bandwidth:(Bandwidth.total instance placement)
        ~feasible:(Inc_oracle.is_feasible fixed) ~telemetry:tel)

let run ?budget instance =
  run_with ~label:"gtp"
    (fun ~stop ~k o -> Tdmd_submod.Submodular.greedy ~stop ~k o)
    ?budget instance

let run_celf ?budget instance =
  run_with ~label:"gtp-celf"
    (fun ~stop ~k o -> Tdmd_submod.Submodular.lazy_greedy ~stop ~k o)
    ?budget instance

let derived_k instance =
  (* Alg. 1 verbatim: deploy the max-marginal vertex until every flow is
     processed; the number of boxes it used is the derived k. *)
  let oracle = Bandwidth.oracle instance in
  let stop chosen = Allocation.is_feasible instance (Placement.of_list chosen) in
  let sel =
    Tdmd_submod.Submodular.greedy ~stop ~k:(Instance.vertex_count instance) oracle
  in
  let chosen =
    Cover_fixup.within (Inc_oracle.create instance)
      ~chosen:sel.Tdmd_submod.Submodular.chosen ~budget:(Instance.vertex_count instance)
  in
  Placement.size (Placement.of_list chosen)
