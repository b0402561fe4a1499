(** Both directions of the paper's Theorem 1 reduction.

    Forward: a set-cover instance becomes a TDMD feasibility instance —
    one vertex per set on a fully connected topology, one flow per
    element whose path is the "directed line" through the vertices of
    the sets containing it.  Backward: any TDMD instance's feasibility
    question is itself a set-cover instance (sets = flows through each
    vertex), which is how {!Tdmd.Feasibility} answers it exactly. *)

val to_tdmd : Setcover.t -> Tdmd_graph.Digraph.t * Tdmd_flow.Flow.t list
(** Forward reduction.  Flow [e]'s rate is 1; its path visits the
    vertices of the sets containing [e] in ascending set order.
    Elements contained in no set yield an isolated single-vertex path
    and make the instance (correctly) infeasible... they are rejected
    instead: @raise Invalid_argument if some element is in no set. *)

val of_flows : vertex_count:int -> Tdmd_flow.Flow.t list -> Setcover.t
(** Backward reduction: universe = flow positions (in list order), set
    [v] = flows whose path contains [v]. *)
