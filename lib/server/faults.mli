(** Deterministic fault injection for the durability, socket and shard
    lifecycle paths.

    A fault plan arms {e directives} at {e named points} — places in the
    WAL, snapshot, frame-I/O, shard-apply and supervisor-recovery code
    that consult the plan on every pass.  A directive fires either at
    one specific hit count of its point ([:NTH]) or probabilistically on
    every pass ([:p=P], seeded draw), so a seeded plan plus a
    deterministic workload reproduces a failure bit-for-bit; everything
    is inert (a few branch tests) when the plan is {!none}.

    Directive kinds:
    - {b crash}: raise {!Crash} — an in-process stand-in for [kill -9]
      used by the crash-recovery property tests (the CI smoke kills the
      real process as well);
    - {b die}: raise {!Die} — a {e shard-scoped} failure: the supervisor
      catches it and restarts the one shard, the process survives;
    - {b delay}: sleep a seeded 1–10 ms — latency injection that widens
      race windows without changing any outcome;
    - {b eintr}: tell an I/O loop to behave as if the syscall returned
      [EINTR] once;
    - {b short}: clamp one read/write to a strict prefix, exercising
      short-I/O handling;
    - {b corrupt}: flip one pseudo-random byte of an in-flight buffer
      (CRC and framing must catch it downstream);
    - {b fail}: make one I/O pass raise [Unix_error (EIO, _, _)] — a
      deterministic stand-in for [ENOSPC]/media errors mid-record.
      [fail] directives listen at [POINT.fail] (e.g.
      [fail@wal.write.fail:2]) so they do not shift the hit counts of
      [short]/[eintr] directives armed at [POINT].

    Spec grammar (also accepted from the [TDMD_FAULTS] environment
    variable): semicolon-separated [KIND@POINT[:NTH|:p=P]] with an
    optional [seed=N]; [NTH] is the 1-based hit at which the directive
    fires (default 1), [p=P] with [0 < P <= 1] fires on an independent
    seeded draw every pass.  Examples:
    [crash@wal.append.post_write:3;seed=7],
    [die@shard.apply:p=0.02;delay@shard.apply:p=0.1;seed=11].

    Malformed triggers, duplicate directives, and plans where two
    exception-raising kinds ([crash]/[die]/[fail]) could fire on the
    same pass of the same point are rejected with a clear error — a
    typo'd or ambiguous plan must never silently run as something
    else. *)

exception Crash of string
(** Raised by a [crash] directive; carries the point name.  Callers
    must {e not} catch it on the durability path — the whole point is
    that the process dies with its buffers in whatever state they are
    in. *)

exception Die of string
(** Raised by a [die] directive; carries the point name.  Unlike
    {!Crash} this models a shard-scoped failure: the supervisor's single
    sanctioned catch site may absorb it and restart the shard in
    place. *)

type t

val none : t
(** The empty plan: every hook is a no-op. *)

val enabled : t -> bool
(** [false] exactly for {!none}-equivalent plans (lets hot paths skip
    hook bookkeeping). *)

val of_spec : string -> (t, string) result
(** Parse the grammar above.  [""] yields an inert plan.  Rejects bad
    triggers, duplicate directives and same-pass raising conflicts. *)

val from_env : unit -> t
(** Plan from [TDMD_FAULTS]; inert when unset.  Exits with a message on
    stderr when the spec is malformed (a silent typo must not disable a
    fault run). *)

(** {1 Hooks} *)

val hit : t -> string -> unit
(** Pass a named point.  Sleeps 1–10 ms (seeded) when a [delay]
    directive fires.
    @raise Crash when a [crash] directive fires.
    @raise Die when a [die] directive fires. *)

val eintr : t -> string -> bool
(** [true] when the caller should simulate one [EINTR] return at this
    point (the hit is consumed). *)

val fail : t -> string -> unit
(** Pass the [POINT.fail] companion point of [point].
    @raise Unix.Unix_error [(EIO, _, point)] when a [fail] directive
    fires — the caller's normal error path must handle it exactly as a
    real I/O failure. *)

val clamp : t -> string -> int -> int
(** [clamp t point len] is how many bytes the caller may actually
    read/write this pass: [len] normally, a strict prefix in [\[1,
    len)] when a [short] directive fires ([len] when [len <= 1]). *)

val mangle : t -> string -> bytes -> unit
(** Flip one byte in place when a [corrupt] directive fires at this
    point; no-op otherwise or on empty buffers. *)
