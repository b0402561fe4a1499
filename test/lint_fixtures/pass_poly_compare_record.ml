(* must-pass: scalar compares and dedicated equality go through *)
let same_id (a : int) (b : int) = a = b
let sorted rates = List.sort (fun a b -> compare b a) rates (* tdmd-lint: allow poly-order — this fixture pins poly-compare-record *)
let same_placement p q = Placement.to_list p = Placement.to_list q
