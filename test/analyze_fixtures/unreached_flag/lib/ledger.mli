val post : int -> int
val audit : int -> bool
