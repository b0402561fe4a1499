(** Extension: totally-ordered service chains of traffic-changing
    middleboxes.

    The paper deliberately narrows to a single middlebox type per flow
    (Sec. 1), citing the chain problem it grew out of (Ma et al.,
    INFOCOM 2017 [22]; Mehraghdam et al. [23]).  This module implements
    that generalisation: every flow must traverse one instance of each
    type [t_0 < t_1 < … < t_{m-1}] *in order*; type [i] multiplies the
    flow's rate by its own ratio [λ_i ≥ 0] (diminishing or inflating).
    A vertex may host instances of several types; the instance budget k
    counts (vertex, type) pairs.

    - {!single_flow}: the optimal placement for one flow on its own
      path — a direct DP over (position, types placed), the [22]-style
      building block (tested against brute-force position enumeration);
    - {!allocate}: the forced earliest-instance allocation for a fixed
      deployment (each flow consumes, in chain order, the first
      instance of its next-needed type along its path);
    - {!greedy}: multi-flow shared placement — GTP's greedy lifted to
      (vertex, type) ground elements.  The chained objective is no
      longer submodular in general, so the (1 − 1/e) bound does not
      carry over; tests bound it by single-type equivalence instead. *)

type spec = { ratios : float array }
(** One entry per chain position; [ratios.(i) >= 0]. *)

val make_spec : float list -> spec
(** @raise Invalid_argument on empty or negative ratios. *)

type deployment = (int * int) list
(** Sorted (vertex, type index) pairs, duplicate-free. *)

val normalize : (int * int) list -> deployment

type flow_service = {
  flow_id : int;
  stages : (int * int) list;  (** (type index, serving vertex), chain order *)
  complete : bool;            (** whole chain traversed before dst *)
  consumption : float;
}

val allocate :
  spec -> Tdmd.Instance.t -> deployment -> flow_service list * float
(** Per-flow service detail and the total bandwidth (incomplete flows
    consume the rate reached so far on their remaining edges). *)

val feasible : spec -> Tdmd.Instance.t -> deployment -> bool

val single_flow : spec -> rate:int -> hops:int -> int list * float
(** Optimal chain positions for one flow with the given rate on a path
    of [hops] edges: returns the edge-offset position of each type (a
    non-decreasing list) and the resulting consumption.  Positions are
    offsets in [0 .. hops] from the source. *)

type report = {
  deployment : deployment;
  bandwidth : float;
  feasible : bool;
}

val greedy : k:int -> spec -> Tdmd.Instance.t -> report
(** Adaptive greedy over (vertex, type) pairs with covering fix-up,
    mirroring GTP. *)
