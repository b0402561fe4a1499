(** Small list/array helpers shared across the libraries. *)

val range : int -> int -> int list
(** [range lo hi] is [\[lo; lo+1; …; hi\]]; empty when [lo > hi]. *)

val frange : lo:float -> hi:float -> step:float -> float list
(** Inclusive float range with a tolerance of [step /. 2.] at the top end
    (so [frange ~lo:0. ~hi:0.9 ~step:0.1] has ten points despite rounding). *)

val sum_by : ('a -> float) -> 'a list -> float
val max_by : ('a -> float) -> 'a list -> 'a
(** Element attaining the maximum key; first one wins ties.
    Raises [Invalid_argument] on the empty list. *)

val min_by : ('a -> float) -> 'a list -> 'a
val take : int -> 'a list -> 'a list
val group_by : ('a -> int) -> 'a list -> (int * 'a list) list
(** Groups by an integer key; groups are sorted by key, and elements
    within a group keep their input order. *)
