val install : unit -> unit
val installed : unit -> bool
