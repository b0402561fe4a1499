type general_solver =
  rng:Tdmd_prelude.Rng.t -> k:int -> Instance.t -> Solver_intf.outcome

type tree_solver =
  rng:Tdmd_prelude.Rng.t -> k:int -> Instance.Tree.t -> Solver_intf.outcome

(* GTP then the swap-based refinement on the oracle GTP ends on: never
   worse than plain GTP.  The refinement requires a feasible start, so
   an infeasible greedy run is returned as-is. *)
let gtp_ls ~k inst =
  let g, oracle = Gtp.run_oracle ~budget:k inst in
  if not g.Solver_intf.feasible then g
  else begin
    let r = Local_search.refine ~k inst oracle in
    let tel = g.Solver_intf.telemetry in
    Tdmd_obs.Telemetry.merge ~into:tel r.Solver_intf.telemetry;
    (* [budget] and [placement_size] are run parameters, not work
       counters: the merge added both phases', so restate them. *)
    Tdmd_obs.Telemetry.set tel "budget" (Tdmd_obs.Telemetry.Int k);
    Tdmd_obs.Telemetry.set tel "placement_size"
      (Tdmd_obs.Telemetry.Int (Placement.size r.Solver_intf.placement));
    { r with Solver_intf.telemetry = tel }
  end

(* One-shot view of the churn maintainer: replay the instance's flows
   as an arrival sequence and keep the final deployment, as an operator
   would reach this static snapshot online.  A positive
   [migration_budget] lets the bounded local-search rebalancer
   (Lukovszki–Rost–Schmid-style) spend that many moves per event, so
   the placement tracks the optimum instead of drifting. *)
let replay ~span ~migration_budget ~k inst =
  (* The engine needs a box to place: at k = 0 it replays no flow and
     keeps the empty deployment, which serves only an empty flow set. *)
  let state =
    Incremental.create ~migration_budget ~graph:inst.Instance.graph
      ~lambda:inst.Instance.lambda ~k:(Int.max k 1) ()
  in
  let telemetry = Incremental.telemetry state in
  Tdmd_obs.Telemetry.set telemetry "budget" (Tdmd_obs.Telemetry.Int k);
  Tdmd_obs.Telemetry.with_span telemetry span (fun () ->
      if k > 0 then Array.iter (Incremental.arrive state) inst.Instance.flows);
  Solver_intf.outcome ~lambda:inst.Instance.lambda
    ~total:(Instance.total_path_volume inst)
    ~placement:(Incremental.placement state) ~volume:(Incremental.volume state)
    ~feasible:(Incremental.feasible state && (k > 0 || Instance.flow_count inst = 0))
    ~telemetry

(* Eqs. 7-8 are stated for binary trees: the name refuses a wider tree
   before any work, and on a binary one runs {!Dp}, the same recurrence. *)
let dp_binary ~k inst =
  let tree = inst.Instance.Tree.tree in
  for v = 0 to Tdmd_tree.Rooted_tree.size tree - 1 do
    if List.compare_length_with (Tdmd_tree.Rooted_tree.children tree v) 2 > 0 then
      invalid_arg "Dp_binary.solve: vertex has more than two children"
  done;
  Dp.solve ~k inst

let builtin_general : (string * general_solver) list =
  [
    ("gtp", fun ~rng:_ ~k i -> Gtp.run ~budget:k i);
    ("celf", fun ~rng:_ ~k i -> Gtp.run_celf ~budget:k i);
    ("best-effort", fun ~rng:_ ~k i -> Baselines.best_effort ~k i);
    ("random", fun ~rng ~k i -> Baselines.random rng ~k i);
    ("brute", fun ~rng:_ ~k i -> Brute.solve ~k i);
    ("gtp-ls", fun ~rng:_ ~k i -> gtp_ls ~k i);
    ( "incremental",
      fun ~rng:_ ~k i -> replay ~span:"incremental-replay" ~migration_budget:0 ~k i );
    (* B = 2: at most one box swap per event — the cheapest budget that
       still counters churn drift. *)
    ( "incremental-lrs",
      fun ~rng:_ ~k i -> replay ~span:"incremental-lrs-replay" ~migration_budget:2 ~k i );
    (* Unbounded budget: rebalance to a local optimum after every event,
       approximating recompute-from-scratch at incremental cost. *)
    ( "incremental-lrs-max",
      fun ~rng:_ ~k i ->
        replay ~span:"incremental-lrs-replay" ~migration_budget:max_int ~k i );
  ]

let builtin_tree : (string * tree_solver) list =
  [
    ("dp", fun ~rng:_ ~k i -> Dp.solve ~k i);
    ("dp-binary", fun ~rng:_ ~k i -> dp_binary ~k i);
    ("hat", fun ~rng:_ ~k i -> Hat.run ~k i);
    (* theta = 4 matches the ablation bench's operating point. *)
    ("scaled-dp", fun ~rng:_ ~k i -> Scaled_dp.solve ~k ~theta:4 i);
  ]

(* Extension point for solvers living in libraries that depend on this
   one (tdmd.portfolio's metaheuristics register here).  Registration is
   a start-up-time act — module initialisation or an explicit install
   call — before any concurrent use, so a plain ref suffices. *)
let extra_general : (string * general_solver) list ref = ref []

let register_general name solve =
  if
    List.mem_assoc name builtin_general
    || List.mem_assoc name builtin_tree
    || List.mem_assoc name !extra_general
  then invalid_arg ("Solvers.register_general: duplicate name " ^ name);
  extra_general := !extra_general @ [ (name, solve) ]

let general () = builtin_general @ !extra_general
let tree () = builtin_tree

let find_general name =
  match List.assoc_opt name builtin_general with
  | Some _ as hit -> hit
  | None -> List.assoc_opt name !extra_general

let find_tree name = List.assoc_opt name builtin_tree

let on_tree name =
  match find_tree name with
  | Some f -> Some f
  | None ->
    find_general name
    |> Option.map (fun f ~rng ~k inst -> f ~rng ~k (Instance.Tree.to_general inst))

let general_names () = List.map fst (general ())
let tree_names () = List.map fst (tree ())
let names () = general_names () @ tree_names ()

let describe_unknown ?(tree_input = false) name =
  if (not tree_input) && List.mem name (tree_names ()) then
    Printf.sprintf
      "%S solves tree instances only (run it against a tree topology); \
       solvers available here: %s"
      name
      (String.concat " | " (general_names ()))
  else
    Printf.sprintf "unknown algorithm %S (general: %s; tree-only: %s)" name
      (String.concat " | " (general_names ()))
      (String.concat " | " (tree_names ()))
