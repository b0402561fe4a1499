(** The solver registry: every placement algorithm reachable by name.

    Two tables of [(name, function)] rows, split by the input the
    solver needs; every row returns the shared {!Solver_intf.outcome}.
    [bin/tdmd_cli.ml]'s [--algo] dispatch, [Tdmd_sim.Experiments]'s
    algorithm lists, the bench's solver sweep and the server's [solve]
    all resolve through them — a row added here is reachable
    everywhere at once.  Deterministic solvers ignore [rng] (only
    ["random"] draws from it); [k] is the middlebox budget.

    General solvers ({!general}):
    - ["gtp"]          — paper Alg. 1 greedy ({!Gtp.run})
    - ["celf"]         — lazy-greedy GTP ({!Gtp.run_celf})
    - ["best-effort"]  — non-adaptive singleton ranking ({!Baselines})
    - ["random"]       — feasibility-retrying random placement
    - ["brute"]        — exhaustive optimum (small instances only)
    - ["gtp-ls"]       — GTP followed by {!Local_search.refine}
    - ["incremental"]  — {!Incremental} maintenance, replaying the
                         instance's flows as an arrival sequence
    - ["incremental-lrs"]     — the same replay with a migration budget
                                of 2 moves per event spent by the
                                bounded local-search rebalancer
    - ["incremental-lrs-max"] — unbounded migration budget: rebalance
                                to a local optimum after every event

    Tree solvers ({!tree}):
    - ["dp"]           — optimal tree DP (Sec. 5.1)
    - ["dp-binary"]    — Eqs. 7–10 transcription (binary trees only)
    - ["hat"]          — leaf-merge heuristic (Alg. 2)
    - ["scaled-dp"]    — rate-quantised DP at θ = 4

    Libraries layered above this one extend the general table at
    start-up through {!register_general} — [Tdmd_portfolio.Register]
    contributes ["anneal"], ["genetic"] and ["portfolio"] this way —
    so the listing functions below are functions of [unit], not
    values. *)

type general_solver =
  rng:Tdmd_prelude.Rng.t -> k:int -> Instance.t -> Solver_intf.outcome

type tree_solver =
  rng:Tdmd_prelude.Rng.t -> k:int -> Instance.Tree.t -> Solver_intf.outcome

val general : unit -> (string * general_solver) list
(** Built-in general solvers followed by {!register_general} extras in
    registration order. *)

val tree : unit -> (string * tree_solver) list

val register_general : string -> general_solver -> unit
(** Extend the general table with a dynamically provided solver.  Call
    at start-up, before any concurrent registry use (the table is a
    plain ref, deliberately unsynchronised).
    @raise Invalid_argument when [name] is already registered, in any
    table — a collision would make {!on_tree} dispatch ambiguous. *)

val find_general : string -> general_solver option
val find_tree : string -> tree_solver option

val on_tree : string -> tree_solver option
(** Resolve a name against the tree registry first, then lift a
    general solver through {!Instance.Tree.to_general} — every
    registered solver can score a tree instance. *)

val names : unit -> string list
(** All registry names: tree-only solvers last, as in [--algo]'s
    documentation. *)

val general_names : unit -> string list
val tree_names : unit -> string list

val describe_unknown : ?tree_input:bool -> string -> string
(** Diagnostic for a name that failed to resolve, listing what the
    registry does offer.  With [~tree_input:false] (the default) a
    name that {e is} registered — but only for trees — yields a message
    explaining the topology restriction instead of claiming the name is
    unknown.  Shared by the CLI and the serving layer so every surface
    reports the same registry. *)
