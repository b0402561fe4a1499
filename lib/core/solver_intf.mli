(** The one result every placement algorithm returns.

    The paper scores every scheme on one footing (Sec. 6): the
    deployment, its bandwidth b(P, F), and whether it serves every
    flow.  {!outcome} is that footing plus the run's
    {!Tdmd_obs.Telemetry.t}, which holds each solver's work counters
    and spans (the solvers' doc comments list theirs).  {!Gtp},
    {!Baselines}, {!Brute}, {!Dp}, {!Dp_binary}, {!Scaled_dp}, {!Hat},
    {!Local_search} and {!Capacitated} all return it, and {!Solvers}
    names them for the CLI, the experiments, the bench and the
    server. *)

type outcome = {
  placement : Placement.t;
  bandwidth : float;  (** b(P, F) of the returned deployment *)
  feasible : bool;    (** all flows served? *)
  telemetry : Tdmd_obs.Telemetry.t;
}

val outcome :
  placement:Placement.t ->
  bandwidth:float ->
  feasible:bool ->
  telemetry:Tdmd_obs.Telemetry.t ->
  outcome
