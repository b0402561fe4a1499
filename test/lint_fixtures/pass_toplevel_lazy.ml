(* must-pass: eager tables, lazies made per call, and forced values *)
let table = Array.init 256 Fun.id
let per_call () = lazy (Array.length table)
let forced = Lazy.from_val 3

let local () =
  let cache = lazy (Array.copy table) in
  Lazy.force cache

let via_module () =
  let module M = struct
    let v = lazy 1
  end in
  Lazy.force M.v
