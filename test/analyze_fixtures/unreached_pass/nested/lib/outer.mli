module Inner : sig
  val deep : int -> int
end
