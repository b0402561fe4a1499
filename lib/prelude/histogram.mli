(** Fixed-bin histograms for workload, topology and latency statistics. *)

type t

type scale = Linear | Log

val create : ?scale:scale -> lo:float -> hi:float -> bins:int -> unit -> t
(** Uniform ([Linear], default) or geometric ([Log]) bins over
    [\[lo, hi)]; out-of-range samples clamp to the first/last bin.
    [Log] bins suit quantities spanning orders of magnitude (request
    latencies) and require [lo > 0].  @raise Invalid_argument if
    [bins <= 0], [hi <= lo], or [Log] with [lo <= 0]. *)

val add : t -> float -> unit
(* tdmd-analyze: allow unreached-export — the hidden bins the clamping tests read *)
val bin_counts : t -> int array
val bin_edges : t -> (float * float) array
(** Per-bin [(lower, upper)] bounds, same order as {!bin_counts}. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,1\]]: estimated p-quantile of the
    recorded samples, linearly interpolated inside the containing bin
    (so the error is bounded by the bin width).  [nan] when empty. *)
