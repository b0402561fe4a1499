val via_alias : int -> int
