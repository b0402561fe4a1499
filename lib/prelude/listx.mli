(** Small list/array helpers shared across the libraries. *)

val range : int -> int -> int list
(** [range lo hi] is [\[lo; lo+1; …; hi\]]; empty when [lo > hi]. *)

val frange : lo:float -> hi:float -> step:float -> float list
(** Inclusive float range with a tolerance of [step /. 2.] at the top end
    (so [frange ~lo:0. ~hi:0.9 ~step:0.1] has ten points despite rounding). *)

val take : int -> 'a list -> 'a list
