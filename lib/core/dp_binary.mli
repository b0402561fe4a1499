(** The paper's binary-tree DP, transcribed directly from Eqs. 7–10.

    Sec. 5.1 presents the recurrences for binary trees ("for simplicity,
    we only discuss the solution for the binary tree"); {!Dp}
    generalises them by sequential child merging.  This module is an
    independent implementation of the two-subtree form —
    [F(v,k) = min { min_p F(v_l,p) + F(v_r,k-p) + λ·Σb(f) ,
                    min_q P(v_l,q,b_l) + P(v_r,k-1-q,b_r) + uplinks } ]
    — used to cross-check {!Dp} on random binary trees (they must agree
    exactly) and as the fidelity artifact for the paper's own
    presentation.

    Accepts trees whose internal vertices have one or two children
    (a missing subtree contributes the empty table). *)

val solve : k:int -> Instance.Tree.t -> Solver_intf.outcome
(** Telemetry: counters ["budget"], ["states"], ["placement_size"];
    span [dp-binary].
    @raise Invalid_argument if some vertex has more than two
    children. *)
