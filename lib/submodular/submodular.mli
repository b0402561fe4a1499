(** Monotone submodular maximisation under a cardinality constraint.

    The TDMD decrement function d(P) is monotone submodular (paper
    Theorem 2), so GTP is the classical greedy with its (1 − 1/e)
    guarantee (Theorem 3).  This module factors that machinery out: the
    ground set is [0 .. n-1] and the objective is an oracle over element
    lists.  [lazy_greedy] (CELF; Leskovec et al., KDD 2007) exploits
    submodularity to skip re-evaluations and returns *the same set* as
    [greedy] — an ablation bench measures the saved oracle calls. *)

type incremental = {
  restart : unit -> unit;  (** reset the committed set to ∅ *)
  gain : int -> float;     (** marginal value of an element vs. the committed set *)
  commit : int -> unit;    (** accept an element into the committed set *)
}
(** Optional fast path for oracles that can answer marginals against a
    mutable committed set without re-evaluating from scratch (the TDMD
    decrement backs this with {e Inc_oracle}: O(1) per [gain] off its
    gain ledger instead of O(|F|·avg-path-length)).  The greedy drivers use
    it commit-on-accept: [gain] for every candidate probe, [commit] only
    for the accepted element.  [gain] must return exactly
    [value (v :: committed) -. value committed] — the differential tests
    assert bit-for-bit agreement on integer-valued objectives. *)

type oracle = {
  ground : int;                 (** ground-set size *)
  value : int list -> float;    (** set function; [value []] may be non-zero *)
  incremental : incremental option;
      (** fast marginal interface; [None] forces from-scratch evaluation *)
}

val make :
  ground:int -> value:(int list -> float) -> ?incremental:incremental -> unit -> oracle
(** Plain constructor; [incremental] defaults to [None]. *)

type result = {
  chosen : int list;            (** in selection order *)
  gains : float list;           (** marginal gain of each selection *)
  oracle_calls : int;
}

val greedy :
  ?stop:(int list -> bool) -> k:int -> oracle -> result
(** Plain adaptive greedy: repeatedly add the element with the largest
    marginal gain (lowest index wins ties) until [k] elements are chosen,
    no element has positive gain, or [stop chosen] becomes true (checked
    after each selection — GTP uses it for "all flows processed").  When
    the oracle carries an {!incremental} interface, marginals come from
    it (identical selections whenever [gain] is exact; far cheaper). *)

val lazy_greedy :
  ?stop:(int list -> bool) -> k:int -> oracle -> result
(** CELF lazy evaluation.  Identical output to {!greedy} for submodular
    objectives (ties broken by index, like [greedy]); typically far
    fewer oracle calls. *)

val check_monotone :
  Tdmd_prelude.Rng.t -> trials:int -> oracle -> (unit, string) Stdlib.result
(** Randomised monotonicity check: f(S) ≤ f(S ∪ {v}).  Used by the
    property tests to validate Theorem 2 empirically. *)

val check_submodular :
  Tdmd_prelude.Rng.t -> trials:int -> oracle -> (unit, string) Stdlib.result
(** Randomised diminishing-returns check:
    f(S ∪ {v}) − f(S) ≥ f(S' ∪ {v}) − f(S') for sampled S ⊆ S'. *)
