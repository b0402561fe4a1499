(** All-pairs shortest paths.

    O(|V|³); used by the topology statistics (diameter, mean path
    length).  A property test checks it against {!Bfs} on unit
    weights. *)

val distances : Digraph.t -> float array array
(** [d.(u).(v)]: weighted distance, [infinity] if unreachable, [0.] on
    the diagonal.
    @raise Invalid_argument on a negative edge weight (negative cycles
    are out of scope for link networks). *)

val diameter : Digraph.t -> float
(** Largest finite pairwise distance (0. for singleton graphs). *)

val mean_finite_distance : Digraph.t -> float
(** Mean over ordered reachable pairs (u <> v); [nan] if none. *)
