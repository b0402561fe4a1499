(** General topology generators (Sec. 6 experiments, Fig. 8(c)).

    Every generator returns a connected graph whose links are
    bidirectional (both arcs present), matching the paper's model.  All
    randomness is explicit. *)

open Tdmd_prelude

val erdos_renyi : Rng.t -> int -> p:float -> Tdmd_graph.Digraph.t
(** G(n, p) conditioned on connectivity: a random spanning tree is laid
    down first, then each remaining pair is linked with probability
    [p]. *)

val resize : Rng.t -> Tdmd_graph.Digraph.t -> int -> Tdmd_graph.Digraph.t
(** Grow by attaching new vertices to 1–2 random existing ones, or
    shrink by deleting random vertices whose removal keeps the graph
    connected — the paper's size sweep. *)

val spanning_tree : Rng.t -> Tdmd_graph.Digraph.t -> root:int -> Tdmd_tree.Rooted_tree.t
(** Random-order BFS spanning tree, used to "reduce" a general topology
    to the paper's tree topology (Fig. 8(b) from Fig. 8(a)). *)
