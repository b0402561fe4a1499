(** Array-based polymorphic binary min-heap.

    The ordering is supplied at creation time; [pop] returns the minimum
    element under that ordering.  Used by HAT (Alg. 2's min-heap of merge
    penalties) and as the reference implementation the property tests
    cross-check the pairing heap against. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
(** Heapify in O(n). *)

val to_sorted_list : 'a t -> 'a list
(** Drains the heap (destructive) and returns elements in ascending
    order. *)
