(** Directed graphs over vertices [0 .. n-1].

    The paper's network model (Sec. 3.1): vertices are switches, edges are
    links.  Links are bidirectional, so topology generators add both arcs;
    the type itself is directed because flow paths are directed.  Vertices
    are dense integers, which lets every algorithm use flat arrays. *)

type t

type edge = { src : int; dst : int; weight : float }

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val vertex_count : t -> int
val edge_count : t -> int
(** Number of directed arcs. *)

val add_edge : ?weight:float -> t -> int -> int -> unit
(** Add the directed arc [u -> v] (default weight [1.]).  Duplicate arcs
    are ignored (first weight wins); self-loops raise
    [Invalid_argument]. *)

val add_undirected : ?weight:float -> t -> int -> int -> unit
(** Both arcs, mirroring the paper's bidirectional links. *)

val mem_edge : t -> int -> int -> bool
val weight : t -> int -> int -> float
(** @raise Not_found if the arc is absent. *)

val succ : t -> int -> int list
(** Out-neighbours in insertion order. *)

val pred : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val edges : t -> edge list
val iter_succ : t -> int -> (int -> float -> unit) -> unit

val induced : t -> int array -> t * int array
(** [induced g keep] is the subgraph on the vertices listed in [keep]
    (renumbered densely, preserving [keep]'s order) together with the
    mapping from new index to old vertex id. *)

val to_dot : ?name:string -> t -> string
(** Graphviz rendering (directed). *)
