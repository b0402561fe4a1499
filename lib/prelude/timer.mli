(** Wall-clock measurement for the execution-time figures. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    wall-clock seconds. *)
