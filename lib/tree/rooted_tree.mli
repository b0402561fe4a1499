(** Rooted trees over vertices [0 .. n-1].

    The tree experiments (Sec. 5) require all flow sources to be leaves
    and all destinations to be the root; this module provides the rooted
    view — parents, children, depths, leaves, subtree traversal — on
    which both the optimal DP and HAT operate. *)

type t

val of_parents : root:int -> int array -> t
(** [of_parents ~root parents] where [parents.(root) = -1] and every
    other vertex points at its parent.
    @raise Invalid_argument on cycles, forests, or bad roots. *)

val of_digraph : Tdmd_graph.Digraph.t -> root:int -> t
(** Roots an (undirected-link) graph at [root] by BFS.
    @raise Invalid_argument if the graph is not a tree when arc
    directions are ignored (i.e. not connected or has extra edges). *)

val size : t -> int
val root : t -> int
val parent : t -> int -> int
(** [-1] for the root. *)

val children : t -> int -> int list
val depth : t -> int -> int
(** Edges from the root (root has depth 0). *)

val is_leaf : t -> int -> bool
val leaves : t -> int list
(** Ascending vertex order.  A single-vertex tree's root counts as a
    leaf. *)

val height : t -> int

val postorder : t -> int list
(** Children always precede their parent; ends with the root. *)

val path_to_root : t -> int -> int list
(** Vertices from the given vertex up to and including the root. *)

val to_digraph : t -> Tdmd_graph.Digraph.t
(** Directed child→parent arcs (the direction flows travel). *)
