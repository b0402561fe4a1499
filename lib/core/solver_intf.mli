(** The one result every placement algorithm returns.

    The paper scores every scheme on one footing (Sec. 6): the
    deployment, its bandwidth b(P, F), and whether it serves every
    flow.  {!outcome} is that footing plus the diminished volume the
    solver decided on and the run's {!Tdmd_obs.Telemetry.t}, which holds
    each solver's work counters and spans (the solvers' doc comments
    list theirs).  {!Gtp}, {!Baselines}, {!Brute}, {!Dp}, {!Scaled_dp},
    {!Hat}, {!Local_search} and {!Capacitated} all return it, and
    {!Solvers} names them for the CLI, the experiments, the bench and
    the server. *)

type outcome = {
  placement : Placement.t;
  volume : int;
      (** D(P) of the returned deployment: {!Bandwidth.diminished_volume},
          or for {!Capacitated} the volume its own allocation serves *)
  bandwidth : float;  (** b(P, F) = U − (1−λ)·[volume], by {!Bandwidth.render} *)
  feasible : bool;    (** all flows served? *)
  telemetry : Tdmd_obs.Telemetry.t;
}

val outcome :
  lambda:float ->
  total:int ->
  placement:Placement.t ->
  volume:int ->
  feasible:bool ->
  telemetry:Tdmd_obs.Telemetry.t ->
  outcome
(** [outcome ~lambda ~total ~placement ~volume ...] renders [bandwidth]
    from [volume] against U = [total]: no solver computes b itself. *)
