(** Extension: per-middlebox processing capacity.

    The paper assumes uncapacitated middleboxes ("a middlebox does not
    have a capacity limit", Sec. 1) and cites capacity-aware placement
    as the neighbouring problem (Sallam & Ji, INFOCOM 2019).  This
    module adds the natural capacitated variant as a library extension:
    a deployed box can process at most [capacity] total flow rate.

    Allocation is no longer forced: we use the first-fit rule — flows
    in descending rate order each take the earliest deployed box on
    their path with spare capacity.  The solver is the GTP greedy run
    against this capacitated allocation (the objective is no longer
    guaranteed submodular, so the (1 − 1/e) bound does not carry over —
    an ablation bench quantifies the gap empirically). *)

type assignment = {
  served : (int * int) list;  (** (flow id, serving vertex) *)
  unserved : int list;        (** flow ids *)
  volume : int;               (** diminished volume of the served flows *)
}

val allocate : Tdmd.Instance.t -> capacity:int -> Tdmd.Placement.t -> assignment
(** First-fit capacitated allocation for a fixed deployment. *)

val greedy : k:int -> capacity:int -> Tdmd.Instance.t -> Tdmd.Solver_intf.outcome
(** Capacitated greedy: repeatedly add the vertex whose addition raises
    the capacitated diminished volume most, so lowers the capacitated
    bandwidth most, while some addition strictly raises it (never at
    λ = 1), up to [k] boxes.  The outcome's volume and bandwidth are the
    capacitated ones, and it is feasible when first-fit serves every
    flow.

    Telemetry: counters ["budget"], ["capacity"], ["allocations"],
    ["unserved_flows"], ["placement_size"]; span [capacitated]. *)
