val read : unit -> string
