(** Temporal workloads: flow arrivals and departures over virtual time.

    The paper's instances are static, but its motivation cites traffic
    demand changes (Sec. 6.1); the {!Tdmd.Incremental} extension
    maintains a deployment across such events.  Flows arrive as a
    Poisson-ish process (exponential inter-arrivals) and live for an
    exponential holding time. *)

type event =
  | Arrival of Tdmd_flow.Flow.t
  | Departure of int  (** flow id *)

type timeline = (float * event) list
(** Events in non-decreasing time order. *)

val generate :
  Tdmd_prelude.Rng.t ->
  horizon:float ->
  mean_interarrival:float ->
  mean_lifetime:float ->
  draw_flow:(Tdmd_prelude.Rng.t -> int -> Tdmd_flow.Flow.t) ->
  timeline
(** [draw_flow rng id] builds the flow for the [id]-th arrival (ids are
    dense from 0).  Departures past the horizon are dropped — flows
    alive at the horizon simply never depart. *)

val random_flow :
  ?dests:int array ->
  Tdmd_graph.Digraph.t ->
  Tdmd_prelude.Rng.t ->
  int ->
  Tdmd_flow.Flow.t
(** A [draw_flow] for {!generate}: rate uniform in 1..8 along the BFS
    shortest path from a random source to a distinct random destination
    drawn over every vertex, or over [dests].  Draws [src], [dst], then
    the rate; @raise Failure after 100 draws without a path. *)
