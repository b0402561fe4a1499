module Telemetry = Tdmd_obs.Telemetry

(* Budgets for registry-style run-to-completion calls.  Steps are moves
   (one oracle probe each), so these are a few milliseconds on the
   fig-1-scale instances the registry tests use and well under a second
   at bench sizes. *)
let solo_steps = 4000
let portfolio_steps = 1500

let result_outcome inst (r : Search.result) tel =
  Telemetry.set tel "steps" (Telemetry.Int r.Search.steps);
  Telemetry.set tel "improvements" (Telemetry.Int r.Search.improvements);
  Telemetry.set tel "placement_size" (Telemetry.Int (List.length r.Search.placement));
  Tdmd.Solver_intf.outcome ~lambda:inst.Tdmd.Instance.lambda
    ~total:(Tdmd.Instance.total_path_volume inst)
    ~placement:(Tdmd.Placement.of_list r.Search.placement)
    ~volume:r.Search.volume ~feasible:r.Search.feasible ~telemetry:tel

let anneal_solver ~rng ~k inst =
  let tel = Telemetry.create () in
  let r =
    Telemetry.with_span tel "anneal" (fun () ->
        Anneal.run ~rng ~k ~steps:solo_steps inst)
  in
  result_outcome inst r tel

let genetic_solver ~rng ~k inst =
  let tel = Telemetry.create () in
  let r =
    Telemetry.with_span tel "genetic" (fun () ->
        Genetic.run ~rng ~k ~steps:portfolio_steps inst)
  in
  result_outcome inst r tel

let portfolio_solver ~rng ~k inst =
  let tel = Telemetry.create () in
  let t, best =
    Telemetry.with_span tel "portfolio" (fun () ->
        let t = Portfolio.start ~steps:portfolio_steps ~rng ~k inst in
        let best = Portfolio.await t in
        (t, best))
  in
  Portfolio.outcome_of ~telemetry:tel t best

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Tdmd.Solvers.register_general "anneal" anneal_solver;
    Tdmd.Solvers.register_general "genetic" genetic_solver;
    Tdmd.Solvers.register_general "portfolio" portfolio_solver
  end
