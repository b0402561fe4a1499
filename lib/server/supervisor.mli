(** Per-shard health state machine and supervised restart.

    The serve layer is crash-{e safe} (WAL + snapshots + recovery) but a
    shard whose leader dies mid-batch, or whose journal poisons after a
    failed fsync, used to wedge every request routed at it.  The
    supervisor makes it crash-{e tolerant}: each shard carries a health
    state

    {v Serving --failure--> Recovering --K consecutive failed
       recoveries--> Poisoned v}

    and a failure (reported by the engine, or caught by {!protect}
    around a dispatch) spawns one background recovery thread that
    retries the shard's snapshot⊕replay restart procedure under
    {!Tdmd_prelude.Backoff} until it succeeds (back to [Serving]) or the
    circuit breaker trips ([Poisoned] — the shard stays down and answers
    ["unavailable"] until an operator intervenes, instead of
    crash-looping against a broken disk).

    The supervisor hosts the project's {e single} sanctioned
    catch-and-restart site (see {!protect}): everything else in
    [lib/server] matches the exceptions it means, and [Faults.Crash]
    (the stand-in for [kill -9]) is always re-raised so crash tests keep
    killing the process. *)

type state = Serving | Recovering | Poisoned

val state_to_string : state -> string
(** ["serving"] / ["recovering"] / ["poisoned"] — the wire spelling used
    by the [health] RPC. *)

type config = {
  max_failures : int;
      (** K: trip the breaker to [Poisoned] after this many consecutive
          failed recovery attempts (>= 1) *)
  backoff : Tdmd_prelude.Backoff.policy;
      (** schedule between recovery attempts; the default is unlimited
          attempts/budget so [max_failures] alone governs *)
  retry_after_ms : int;
      (** pushed to clients in ["retry_after_ms"] on [unavailable]
          replies *)
}

val default_config : config
(** [max_failures = 5], backoff base 10 ms / cap 250 ms,
    [retry_after_ms = 50]. *)

val config :
  ?max_failures:int ->
  ?backoff:Tdmd_prelude.Backoff.policy ->
  ?retry_after_ms:int ->
  unit ->
  config
(** {!default_config} with overrides.
    @raise Invalid_argument on [max_failures < 1] or
    [retry_after_ms < 0]. *)

type t

val create :
  ?config:config ->
  ?faults:Faults.t ->
  restart:(int -> (unit, string) result) option ->
  shards:int ->
  unit ->
  t
(** [create ~restart ~shards ()] starts every shard [Serving].
    [restart] is the in-place restart procedure (abandon the dead
    session, recover a replacement from disk, swap it in); [None] —
    non-durable engines, which have no disk state to recover from —
    makes the first failure trip straight through recovery attempts
    that all fail.  [faults] arms the recovery-attempt point
    ["sup.recover"] (a [die] there fails that attempt; a [crash] kills
    the process mid-recovery). *)

val retry_after_ms : t -> int

val state : t -> int -> state
val all_serving : t -> bool

val guard : t -> int -> (unit, string) result
(** Consult shard [i]'s health before dispatching to it: [Ok ()] when
    [Serving], otherwise [Error msg] with a client-facing explanation
    (the caller answers code ["unavailable"] with
    {!retry_after_ms}). *)

type shard_health = {
  state : state;
  restarts : int;  (** successful supervised restarts *)
  failures : int;  (** failed recovery attempts, lifetime *)
  consecutive_failures : int;  (** resets to 0 on success *)
  breaker_trips : int;
  last_recovery_ms : float;  (** duration of the last successful recovery *)
  last_error : string option;
}

val health : t -> shard_health array
(** Consistent snapshot of every shard's health, for [stats] and the
    [health] RPC. *)

val report_failure : t -> int -> reason:string -> unit
(** Mark shard [i] failed and spawn its recovery thread.  No-op when the
    shard is already [Recovering] or [Poisoned] (one recovery thread per
    failure episode), or after {!shutdown}. *)

val protect : t -> int -> fallback:(string -> 'a) -> (unit -> 'a) -> 'a
(** Run a dispatch against shard [i] under the sanctioned catch-all:
    exceptions other than [Faults.Crash] (always re-raised) are absorbed
    as a shard failure — {!report_failure} fires and [fallback reason]
    supplies the caller's reply (typically an ["unavailable"] error).
    The op may or may not have been applied; exactly-once is the
    journaled dedup table's job, so the fallback reply must tell the
    client to retry {e with the same req}. *)

val await : ?timeout_s:float -> t -> int -> state -> bool
(** Test helper: poll until shard [i] reaches the given state or the
    timeout (default 10 s) expires. *)

val shutdown : t -> unit
(** Stop spawning recoveries and join every recovery thread ever
    spawned.  In-flight attempts finish their current try (bounded by
    the backoff cap) first.  Call before closing the engine's shards so
    a mid-restart swap cannot race the close. *)
