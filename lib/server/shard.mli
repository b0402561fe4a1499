(** One shard of the sharded placement engine: a {!Session} (its own
    churn engine, WAL segment stream and dedup table) fronted by a
    group-commit queue.

    Concurrent {!submit} calls from worker domains enqueue their op and
    elect a leader: the first submitter into an idle queue drains it —
    including everything that arrives while a batch is committing — into
    {!Session.apply_batch}, amortizing one session-lock acquisition and
    one WAL fsync over the whole batch.  Everyone else blocks on a
    condition variable until the leader fills in their reply.  Under
    contention batches form naturally; an uncontended shard degenerates
    to batches of one, which is exactly the pre-shard code path. *)

type t

val create : ?faults:Faults.t -> id:int -> Session.t -> t
(** Wrap a session as shard [id].  The shard owns the session: close it
    via {!close} only.  [faults] arms the leader-loop points
    ["shard.apply"] (before the batch reaches the session — a [die]
    kills the leader with the batch un-applied) and ["shard.apply.post"]
    (batch applied and durable, waiters not yet acked — the
    exactly-once-under-retry window). *)

val id : t -> int
val session : t -> Session.t

val submit : t -> Journal.op -> Session.reply
(** Enqueue one churn op and block until a leader (possibly this very
    caller) commits the batch containing it ({!Session.apply_batch}
    decides the reply).  Thread-safe. *)

type stats = {
  queue_depth : int;  (** ops awaiting a leader right now *)
  queue_peak : int;  (** high-water mark of [queue_depth] *)
  batches : int;  (** group commits so far *)
  batched_ops : int;  (** ops across all batches; [/. batches] = mean size *)
  batch_max : int;  (** largest single batch *)
}

val stats : t -> stats

val close : t -> unit
(** {!Session.close} the underlying session (final snapshot). *)
