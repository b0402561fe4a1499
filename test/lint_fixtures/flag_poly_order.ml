(* must-flag: poly-order at lines 3, 6, 9 and 12 *)
let top s h =
  min s h

let widest a b =
  Stdlib.max a b

let sorted vs =
  List.sort_uniq compare vs

let order a b =
  Stdlib.compare a b
