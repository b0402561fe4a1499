(** Tree topology generators (Sec. 5 experiments, Fig. 8(b)).

    All generators are deterministic given the RNG, and always return a
    tree rooted at vertex [0] (the paper's red root: the common flow
    destination). *)

open Tdmd_prelude

val random_attachment : Rng.t -> int -> Tdmd_tree.Rooted_tree.t
(** Each new vertex attaches to a uniformly random existing vertex —
    produces the shallow, irregular trees typical of measured
    infrastructure. *)

val resize : Rng.t -> Tdmd_tree.Rooted_tree.t -> int -> Tdmd_tree.Rooted_tree.t
(** Grow or shrink to exactly [n] vertices by randomly inserting leaves
    or deleting existing leaves — the paper's topology-size sweep
    ("randomly inserting and deleting vertices").  The root is never
    deleted. *)
