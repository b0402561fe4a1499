(** Breadth-first shortest paths (unit edge lengths).

    Flow paths in the general-topology experiments are hop-count shortest
    paths from the flow source to one of the designated destination
    vertices, matching the paper's pre-determined valid paths. *)

val shortest_path : Digraph.t -> src:int -> dst:int -> int list option
(** Vertex sequence from [src] to [dst] inclusive, or [None] when
    unreachable.  Deterministic: neighbours are scanned in adjacency
    order. *)
