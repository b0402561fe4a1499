(** Structured JSON-lines sink.

    One JSON object per line — the format every machine-readable output
    of the project shares ([--metrics-out], the bench's [BENCH_*.json]).
    Writers are trivial wrappers over a byte sink so tests can capture
    into a [Buffer.t] and production code into a channel. *)

type t

val of_channel : out_channel -> t

val emit : t -> Json.t -> unit
(** Write one record and a newline; channel sinks flush per record so
    partially-written files are still valid JSON-lines prefixes. *)

val record :
  ?extra:(string * Json.t) list -> event:string -> Telemetry.t -> Json.t
(** Standard record shape: [{"event": ..., <extra fields>, "telemetry":
    {...}}], ready for {!emit}. *)
