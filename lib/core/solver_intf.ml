type outcome = {
  placement : Placement.t;
  bandwidth : float;
  feasible : bool;
  telemetry : Tdmd_obs.Telemetry.t;
}

let outcome ~placement ~bandwidth ~feasible ~telemetry =
  { placement; bandwidth; feasible; telemetry }
