(** Deterministic pseudo-random number generation.

    Every stochastic component of the library threads an explicit generator
    so that experiments are reproducible from a single integer seed.  The
    implementation is SplitMix64 (Steele et al., OOPSLA 2014): a tiny,
    statistically solid, splittable generator whose state is a single
    [int64].  It is not cryptographic and is not meant to be. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    (for all practical purposes) independent of [t]'s continuation.  Use
    one split per repetition so that sweep points do not share streams. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t n k] draws [k] distinct values from
    [\[0, n)].  Requires [k <= n]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val exponential : t -> float -> float
(** [exponential t mean] samples Exp with the given mean. *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto(Type I) sample: support [\[x_min, ∞)], tail index [alpha]. *)
