(** Workload generation with flow-density targeting.

    The paper's *flow density* is "the ratio of the total traffic load to
    the total capacity of the network" (Sec. 6.2).  We take the load of a
    flow set to be Σ_f r_f·|p_f| (its link-level occupancy before any
    middlebox processing) and the capacity to be
    [link_capacity × (number of directed links usable by flows)]:
    [n−1] uplinks in a rooted tree, all arcs in a general topology.
    Generators keep adding flows until the requested density is met. *)

open Tdmd_prelude

val default_link_capacity : int
(** 100 rate units per directed link. *)

val tree_flows :
  Rng.t ->
  Tdmd_tree.Rooted_tree.t ->
  rates:Rate_dist.t ->
  density:float ->
  ?link_capacity:int ->
  unit ->
  Tdmd_flow.Flow.t list
(** Flows from uniformly random leaves to the root (the paper's tree
    workload).  Flows from the same leaf are kept separate here; solvers
    that want the merged view call {!Tdmd_flow.Flow.merge_same_source}.
    A tree with only the root yields no flows. *)

val general_flows :
  Rng.t ->
  Tdmd_graph.Digraph.t ->
  dests:int list ->
  rates:Rate_dist.t ->
  density:float ->
  ?link_capacity:int ->
  unit ->
  Tdmd_flow.Flow.t list
(** Flows from random sources to random members of [dests] (the paper's
    red destination nodes), routed on BFS shortest paths. *)

val density :
  links:int -> ?link_capacity:int -> Tdmd_flow.Flow.t list -> float
(** Achieved density of a flow set. *)

val tree_link_count : Tdmd_tree.Rooted_tree.t -> int
val general_link_count : Tdmd_graph.Digraph.t -> int
