(* must-flag: toplevel-lazy at lines 2, 4, 6, 8, 12, 15 and 19 *)
let table = lazy (Array.init 256 Fun.id)

let squares = Lazy.from_fun (fun () -> Array.init 16 (fun i -> i * i))

let typed : int array Lazy.t = lazy [| 1; 2 |]

let sized =
  let n = 16 in
  lazy (Array.make n 0)

let opened = List.(lazy (init 3 Fun.id))

module Cache = struct
  let names = lazy (List.init 4 string_of_int)
end

module Sealed : sig val ids : int list Lazy.t end = struct
  let ids = lazy [ 1; 2 ]
end
