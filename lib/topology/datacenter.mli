(** The data-center topology named in the paper's Sec. 5 motivation:
    Fat-tree (Al-Fares et al., SIGCOMM 2008), returned as a
    bidirectional-link digraph plus the vertex roles, so experiments can
    aggregate it into the paper's tree-structured view or use it
    directly as a general topology. *)

type fat_tree = {
  graph : Tdmd_graph.Digraph.t;
  core : int list;
  aggregation : int list;
  edge : int list;
  hosts : int list;
}

val fat_tree : int -> fat_tree
(** [fat_tree k] for even [k >= 2]: [k] pods, [(k/2)²] core switches,
    [k²/2] aggregation and edge switches, [k³/4] hosts. *)
