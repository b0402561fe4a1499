(** The `tdmd serve` daemon: sockets in front of the solver registry.

    Threading model (OCaml 5, no external deps):

    - one {e acceptor} systhread blocks in [accept];
    - one {e reader} systhread per connection parses frames and replies
      to control ops ([ping], [stats], [health], [shutdown]) inline, so
      the server stays observable even when every worker is busy;
    - compute ops ([solve], [arrive], [depart], [sleep]) are submitted
      to a {!Tdmd_prelude.Parallel.Pool} of worker {e domains} with a
      bounded queue — a full queue answers ["overloaded"] immediately
      (backpressure), and a request whose ["deadline_ms"] expires while
      queued is answered ["deadline"] without being executed.

    Health-gated routing: an op aimed at a [Recovering]/[Poisoned]
    shard (and [stats]/live solves while any shard is down, unless the
    engine allows degraded reads) is answered code ["unavailable"] with
    the supervisor's ["retry_after_ms"] hint attached; [health] always
    answers inline with {!Engine.health_fields}.

    Responses are written under a per-connection lock, so concurrent
    completions interleave at frame granularity.  {!request_stop} (or a
    client's [shutdown] op, or the CLI's SIGINT/SIGTERM handlers)
    triggers a graceful drain: the listener closes, queued work
    completes and is answered, then connections shut down.

    Observability: counters [requests], [completed], [rejected],
    [timeouts], [bad_requests], [errors], per-op [op_*] counters, a
    [queue_depth] gauge, and a log-scaled latency histogram feeding the
    [stats] op's p50/p95/p99; on stop, a summary record is appended to
    [metrics_out] when set. *)

type config = {
  addr : Protocol.addr;
  domains : int;          (** worker domains (>= 1) *)
  queue_capacity : int;   (** bounded request queue (>= 1) *)
  default_deadline_ms : int option;
      (** applied when a request carries no ["deadline_ms"] *)
  metrics_out : string option;
      (** JSON-lines file receiving one summary record on stop *)
}

val default_config : Protocol.addr -> config
(** 2 domains, queue of 64, no default deadline, no metrics file. *)

type t

val start : config -> Engine.t -> t
(** Bind, listen and return once the server is accepting (a client may
    connect immediately after [start] returns).  An existing socket
    file at a [Unix_sock] path is replaced.  The engine may be a single
    shard (single-engine reply bytes) or sharded ({!Engine.create} with
    [~shards]).
    @raise Unix.Unix_error when binding fails. *)

val request_stop : t -> unit
(** Flag the server to stop; async-signal-safe (a single atomic store),
    so the CLI installs it directly as the SIGINT/SIGTERM handler.
    Actual draining happens inside {!wait}. *)

val wait : t -> unit
(** Block until a stop is requested, then drain: refuse new work,
    finish and answer everything already queued, close connections,
    join every thread and domain, and write the [metrics_out] summary.
    Returns when the server is fully stopped. *)
