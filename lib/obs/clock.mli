(** Monotonic clock, nanosecond resolution.

    Spans must not jump backwards with NTP adjustments, so telemetry
    timing uses CLOCK_MONOTONIC (via the bechamel stub already in the
    dependency set) rather than [Unix.gettimeofday]. *)

val now_ns : unit -> int64
(** Nanoseconds since an unspecified monotonic origin. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    seconds on the monotonic clock. *)
