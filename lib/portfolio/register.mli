(** Registry hookup for the portfolio solvers. *)

val install : unit -> unit
(** Register ["anneal"], ["genetic"] and ["portfolio"] in
    {!Tdmd.Solvers} (via {!Tdmd.Solvers.register_general}) with fixed
    step budgets, making them reachable from [--algo], the serve layer
    and the bench sweep.  Idempotent; call once at start-up.  The
    serving layer ([Tdmd_server.Session]) installs on module
    initialisation, so any program linking [tdmd.server] gets the names
    for free. *)
