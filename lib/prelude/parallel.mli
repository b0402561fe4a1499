(** Multicore work distribution over OCaml 5 domains.

    A minimal deterministic parallel map: tasks are indexed, a shared
    atomic counter hands indices to worker domains, and each result is
    written to its own slot — so the output order is always the input
    order regardless of scheduling.  Used by the experiment harness to
    spread independent seeded repetitions across cores (bandwidth
    results are bit-identical to the sequential run because every
    repetition's RNG is pre-split before spawning; only wall-clock
    *timing* measurements become noisier under contention). *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] evaluates [f] over [xs] on up to [domains]
    domains (default: sequential when [domains <= 1]).  [f] must not
    rely on shared mutable state.  Exceptions from [f] are re-raised in
    the caller after all domains join. *)

(** Long-lived worker pool with a bounded job queue.

    Unlike {!map} (fork/join over a fixed task list), a [Pool.t] keeps
    its domains alive and accepts jobs one at a time — the shape a
    request-serving daemon needs.  The queue is bounded: {!Pool.submit}
    never blocks, it {e rejects} when the queue is full, which is the
    backpressure signal ([tdmd.server] turns it into a 503-style
    response).  Jobs are [unit -> unit] thunks and must do their own
    result delivery; exceptions escaping a job are routed to the pool's
    [on_error] callback and never kill a worker.  The default callback
    bumps the process-wide {!Pool.job_errors} counter and writes one
    stderr line — a silently swallowed job crash is never the default. *)
module Pool : sig
  type t

  val create :
    ?on_error:(exn -> unit) -> domains:int -> capacity:int -> unit -> t
  (** Spawn [domains] worker domains sharing one FIFO queue holding at
      most [capacity] pending jobs (jobs being executed do not count).
      @raise Invalid_argument when [domains < 1] or [capacity < 1]. *)

  val submit : t -> (unit -> unit) -> bool
  (** Enqueue a job; [false] when the queue is at capacity or the pool
      is shutting down (the job is dropped — the caller owns the
      rejection path). *)

  val queue_depth : t -> int
  (** Jobs enqueued and not yet picked up by a worker. *)

  val cancel : t -> unit
  (** Cooperative cancellation: stop accepting, discard jobs still
      queued, and raise the {!cancelling} flag that long-running jobs
      are expected to poll.  Does {e not} join the workers — follow up
      with {!shutdown} to wait for in-flight jobs to notice the flag
      and return.  Idempotent. *)

  val cancelling : t -> bool
  (** True once {!cancel} has been called.  Cheap (one [Atomic.get]);
      long-running jobs poll it between steps and return early. *)

  val shutdown : t -> unit
  (** Graceful drain: stop accepting, let workers finish every job
      already queued, then join them.  Idempotent. *)

  val job_errors : unit -> int
  (** Process-wide count of job exceptions routed to the {e default}
      [on_error] (custom callbacks do their own accounting).  Exposed
      in [tdmd serve] stats as [pool_job_errors]. *)
end
