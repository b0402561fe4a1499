type outcome = {
  placement : Placement.t;
  volume : int;
  bandwidth : float;
  feasible : bool;
  telemetry : Tdmd_obs.Telemetry.t;
}

let outcome ~lambda ~total ~placement ~volume ~feasible ~telemetry =
  let bandwidth = Bandwidth.render ~lambda ~total volume in
  { placement; volume; bandwidth; feasible; telemetry }
