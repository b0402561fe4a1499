val double : int -> int
val negate : int -> int
