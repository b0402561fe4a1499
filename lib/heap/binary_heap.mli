(** Array-based polymorphic binary min-heap.

    The ordering is supplied at creation time; [pop] returns the minimum
    element under that ordering.  Used by HAT (Alg. 2's min-heap of merge
    penalties). *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)
