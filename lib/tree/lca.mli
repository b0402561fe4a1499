(** Lowest common ancestors (paper Def. 3, with the reflexive descendant
    convention).

    HAT calls LCA once per heap update, so we precompute binary-lifting
    tables: O(n log n) construction, O(log n) per query.  The tests
    cross-check them against a parent-pointer walk. *)

type t

val build : Rooted_tree.t -> t
val query : t -> int -> int -> int
(** [query t u v] is the lowest vertex having both [u] and [v] as
    descendants (possibly [u] or [v] itself). *)
