(** Flow-to-shard routing over a {!Tdmd_topo.Partition}.

    Arrivals route by path ownership: a path wholly inside one shard's
    region is [Local] to it; a path spanning regions is [Cross] with a
    home shard (the one owning most of its vertices), which applies and
    journals it alone.  Departures carry no path, so the router
    remembers each flow's home shard from its arrival. *)

type decision =
  | Local of int
  | Cross of { home : int }

type t

val create : Tdmd_topo.Partition.t -> t

val route_arrive : t -> path:int list -> decision
(** @raise Invalid_argument on an empty path or a vertex outside the
    partitioned graph (callers map this to a bad-request reply). *)

val assign : t -> flow_id:int -> shard:int -> unit
(** Record an applied arrival's home shard.  Thread-safe. *)

val release : t -> flow_id:int -> unit
(** Forget a departed flow. *)

val lookup : t -> flow_id:int -> int option
(** The remembered home shard of an active flow, if any. *)

val route_depart : t -> flow_id:int -> unit -> int
(** The remembered home shard, or shard 0 for an unknown flow (whose
    no-op depart reply matches the pre-shard engine's unknown-flow
    behaviour). *)

val reconcile : t -> shard:int -> flow_ids:int list -> unit
(** Set [shard]'s entries to exactly [flow_ids] — the recovered
    session's live flows after a supervised restart, the durable truth
    for that shard — dropping entries of flows that departed while the
    ack was lost with the leader.  Entries homed on other shards are
    untouched, so after every restart the table holds only live flows.
    Thread-safe. *)
