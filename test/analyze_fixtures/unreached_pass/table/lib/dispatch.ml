(* The handlers are reached through the table, never by name from a
   root. *)
let table = [ ("double", fun x -> Handlers.double x); ("negate", Handlers.negate) ]
let find name = List.assoc_opt name table
