(** Running statistics for experiment repetitions.

    The harness runs every sweep point several times with distinct seeds
    and reports mean ± standard deviation (the paper's error bars).
    [Welford] accumulates in a single numerically-stable pass. *)

module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of the observations; [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float list -> summary
(** One-shot summary of a non-empty observation list. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,1\]]; linear interpolation between
    order statistics.  Sorts a copy; the input is untouched. *)
