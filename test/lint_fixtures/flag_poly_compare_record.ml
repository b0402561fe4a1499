(* must-flag: poly-compare-record at lines 3, 6 and 9 *)
let same_instance inst inst' =
  inst = inst'

let order_placements placement1 placement2 =
  compare placement1 placement2 (* tdmd-lint: allow poly-order — this fixture pins poly-compare-record *)

let graph_changed graph old_graph =
  graph <> old_graph
