(* must-pass: typed orders, and names that only contain min/max/compare *)
type span = { min : int; max : int }

let width s = s.max - s.min
let top s h = Int.min s h
let widest a b = Int.max a b
let sorted vs = List.sort_uniq Int.compare vs
let cap = max_int
let smaller x y = Float.min x y
let compare_rates (a : int) b = Int.compare a b
