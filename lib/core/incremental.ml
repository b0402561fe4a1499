module Flow = Tdmd_flow.Flow

(* All placement decisions compare the oracle's integer
   diminished-volume answers (see inc_oracle.ml); b is rendered from
   them only when a reply asks.  A regression that reintroduces a
   float-literal comparison here is caught by tdmd-lint's [float-equal]
   rule. *)

(* Arrival-ordered flow store with O(1) arrive/depart: a newest-first
   list of liveness cells plus an id index.  Departure tombstones the
   cell; the list is compacted once tombstones outnumber live flows, so
   the store is amortised O(1) per event while [flows] still reads back
   the exact arrival order the server's snapshots depend on. *)
type cell = { cf : Flow.t; slot : int; mutable live : bool }

type t = {
  graph : Tdmd_graph.Digraph.t;
  lambda : float;
  k : int;
  migration_budget : int; (* moves the rebalancer may spend per event *)
  mutable rev_flows : cell list; (* newest first, may contain tombstones *)
  mutable dead : int; (* tombstones still in [rev_flows] *)
  ids : (int, cell) Hashtbl.t; (* id index over live flows *)
  oracle : Inc_oracle.t; (* owns the live flows' incidence *)
  mutable placed : int list; (* deployment, selection order *)
  mutable moves : int;
  mutable rebalances : int;
  mutable rebalance_moves : int;
  tel : Tdmd_obs.Telemetry.t;
}

let create ?(migration_budget = 0) ~graph ~lambda ~k () =
  Instance.check_lambda "Incremental.create" lambda;
  if k < 1 then invalid_arg "Incremental.create: k must be >= 1";
  if migration_budget < 0 then
    invalid_arg "Incremental.create: negative migration budget";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.count tel "migration_budget" migration_budget;
  {
    graph;
    lambda;
    k;
    migration_budget;
    rev_flows = [];
    dead = 0;
    ids = Hashtbl.create 64;
    oracle = Inc_oracle.empty ~vertices:(Tdmd_graph.Digraph.vertex_count graph) ~lambda;
    placed = [];
    moves = 0;
    rebalances = 0;
    rebalance_moves = 0;
    tel;
  }

let flows t =
  List.fold_left
    (fun acc c -> if c.live then c.cf :: acc else acc)
    [] t.rev_flows

let instance t = Instance.make ~graph:t.graph ~flows:(flows t) ~lambda:t.lambda
let placement t = Placement.of_list t.placed
let placed_order t = t.placed
let mem_flow t id = Hashtbl.mem t.ids id
let flow_count t = Hashtbl.length t.ids

(* The oracle mirrors [t.placed] between events. *)
let volume t = Inc_oracle.diminished_volume t.oracle
let bandwidth t = Inc_oracle.bandwidth t.oracle

let feasible t = Inc_oracle.is_feasible t.oracle
let moves t = t.moves
let migration_budget t = t.migration_budget
let rebalances t = t.rebalances
let rebalance_moves t = t.rebalance_moves
let telemetry t = t.tel

let compact t =
  if t.dead > 64 && t.dead > Hashtbl.length t.ids then begin
    t.rev_flows <- List.filter (fun c -> c.live) t.rev_flows;
    t.dead <- 0
  end

(* Moves are counted from the two lists.  [Cover_fixup.within] edits the
   oracle from the engine's deployment to its answer, so afterwards the
   oracle already holds [placed], its edits here are no-ops and the gain
   ledger the rebalancer reads next is still current. *)
let set_placed t placed =
  let before = Placement.of_list t.placed in
  let after = Placement.of_list placed in
  let added =
    List.filter (fun v -> not (Placement.mem before v)) (Placement.to_list after)
  in
  let removed =
    List.filter (fun v -> not (Placement.mem after v)) (Placement.to_list before)
  in
  List.iter (Inc_oracle.remove t.oracle) removed;
  List.iter (Inc_oracle.add t.oracle) added;
  let n_moves = List.length added + List.length removed in
  t.moves <- t.moves + n_moves;
  Tdmd_obs.Telemetry.count t.tel "moves" n_moves;
  t.placed <- placed

(* Highest exact-integer marginal over undeployed vertices; strictly
   positive gains only, lowest vertex wins ties. *)
let best_marginal t = Inc_oracle.argmax t.oracle Inc_oracle.Marginal_volume

(* Bounded local search in the Lukovszki–Rost–Schmid spirit: spend at
   most [budget] instance moves on strictly-improving changes — first
   plain adds while deployment budget remains (1 move each), then
   best single-box swaps (2 moves each).  A swap is accepted only when
   it strictly increases served diminished volume and never increases
   the unserved-flow count, so the search is deterministic (first
   placed box, then lowest vertex, wins ties) and terminates: every
   accepted change strictly grows [dim_volume], which is bounded. *)
let rebalance ?budget t =
  let budget = match budget with Some b -> b | None -> t.migration_budget in
  if budget < 0 then invalid_arg "Incremental.rebalance: negative budget";
  let spent = ref 0 in
  let adding = ref true in
  while !adding && List.length t.placed < t.k && !spent < budget do
    match best_marginal t with
    | Some v ->
      set_placed t (t.placed @ [ v ]);
      incr spent
    | None -> adding := false
  done;
  let swapping = ref true in
  while !swapping && !spent + 2 <= budget do
    let o = t.oracle in
    let dim0 = Inc_oracle.diminished_volume o in
    let uns0 = Inc_oracle.unserved_count o in
    let best = ref None in
    (* Each box's best replacement is priced read-only against the
       oracle without it. *)
    List.iter
      (fun u ->
        let r = Inc_oracle.best_replacement o u in
        if r.Inc_oracle.incoming >= 0 then begin
          let net = r.Inc_oracle.volume + r.Inc_oracle.gain - dim0 in
          let ok = r.Inc_oracle.unserved - r.Inc_oracle.served <= uns0 in
          if ok && net > 0 then begin
            match !best with
            | Some (bn, _, _) when bn >= net -> ()
            | _ -> best := Some (net, u, r.Inc_oracle.incoming)
          end
        end)
      t.placed;
    match !best with
    | Some (_, u, v) ->
      set_placed t (List.filter (fun w -> w <> u) t.placed @ [ v ]);
      spent := !spent + 2
    | None -> swapping := false
  done;
  t.rebalances <- t.rebalances + 1;
  t.rebalance_moves <- t.rebalance_moves + !spent;
  Tdmd_obs.Telemetry.count t.tel "rebalances" 1;
  Tdmd_obs.Telemetry.count t.tel "rebalance_moves" !spent;
  !spent

let auto_rebalance t =
  if t.migration_budget > 0 then ignore (rebalance t)

let arrive t f =
  if Hashtbl.mem t.ids f.Flow.id then
    invalid_arg "Incremental.arrive: duplicate flow id";
  (match Flow.validate t.graph f with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Incremental.arrive: " ^ msg));
  Tdmd_obs.Telemetry.count t.tel "arrivals" 1;
  let c = { cf = f; slot = Inc_oracle.add_flow t.oracle f; live = true } in
  t.rev_flows <- c :: t.rev_flows;
  Hashtbl.replace t.ids f.Flow.id c;
  if not (Inc_oracle.is_feasible t.oracle) then begin
    (* Prefer serving the new flow at its highest-marginal on-path
       vertex while budget remains, then let the shared fix-up restore
       feasibility for anything else (including flows stranded by an
       earlier budget-exhausted event).  Selection rule: first maximum
       in path order, with already-deployed vertices competing at zero
       marginal — but a deployed winner (a zero-marginal tie where the
       new flow is already served at its first hop) must not be
       appended again, so the pick degrades to a no-op instead of
       duplicating a placed entry. *)
    let chosen =
      if List.length t.placed < t.k then begin
        let best = ref f.Flow.path.(0)
        and best_gain = ref (Inc_oracle.marginal_volume t.oracle f.Flow.path.(0)) in
        Array.iter
          (fun v ->
            let g = Inc_oracle.marginal_volume t.oracle v in
            if g > !best_gain then begin
              best := v;
              best_gain := g
            end)
          f.Flow.path;
        if Inc_oracle.mem t.oracle !best then t.placed else t.placed @ [ !best ]
      end
      else t.placed
    in
    set_placed t (Cover_fixup.within t.oracle ~chosen ~budget:t.k)
  end;
  auto_rebalance t

let depart t id =
  (match Hashtbl.find_opt t.ids id with
  | None -> invalid_arg "Incremental.depart: unknown flow id"
  | Some c ->
    Tdmd_obs.Telemetry.count t.tel "departures" 1;
    c.live <- false;
    t.dead <- t.dead + 1;
    Hashtbl.remove t.ids id;
    Inc_oracle.remove_flow t.oracle c.slot;
    compact t);
  (* Boxes that serve nobody are pure waste now. *)
  let useful = List.filter (Inc_oracle.serves t.oracle) t.placed in
  if List.length useful < List.length t.placed then set_placed t useful;
  (* Spend freed budget where it helps. *)
  (if List.length t.placed < t.k then
     match best_marginal t with
     | Some v -> set_placed t (t.placed @ [ v ])
     | None -> ());
  (* A departure can also unlock feasibility denied at a previous
     budget-exhausted event. *)
  if not (Inc_oracle.is_feasible t.oracle) then
    set_placed t (Cover_fixup.within t.oracle ~chosen:t.placed ~budget:t.k);
  auto_rebalance t

(* Rebuild an engine bit-for-bit from an exported state (the server's
   snapshot file).  Both list orders are load-bearing: [flows] is the
   arrival order and [placed] the selection order, and both feed future
   decisions (serving positions, Cover_fixup's chosen order, swap
   scan order). *)
let restore ?(migration_budget = 0) ?(rebalances = 0) ?(rebalance_moves = 0)
    ~graph ~lambda ~k ~flows ~placed ~moves ~arrivals ~departures () =
  Instance.check_lambda "Incremental.restore" lambda;
  if k < 1 then invalid_arg "Incremental.restore: k must be >= 1";
  if migration_budget < 0 then
    invalid_arg "Incremental.restore: negative migration budget";
  if List.length placed > k then
    invalid_arg "Incremental.restore: placement exceeds budget";
  let n = Tdmd_graph.Digraph.vertex_count graph in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Incremental.restore: placed vertex outside the graph")
    placed;
  List.iter
    (fun f ->
      match Flow.validate graph f with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Incremental.restore: " ^ msg))
    flows;
  if moves < 0 || arrivals < 0 || departures < 0 || rebalances < 0
     || rebalance_moves < 0
  then invalid_arg "Incremental.restore: negative counters";
  let ids = Hashtbl.create (Int.max 64 (List.length flows)) in
  let oracle = Inc_oracle.empty ~vertices:n ~lambda in
  let rev_flows =
    List.fold_left
      (fun acc f ->
        let id = f.Flow.id in
        if Hashtbl.mem ids id then
          invalid_arg "Incremental.restore: duplicate flow ids";
        let c = { cf = f; slot = Inc_oracle.add_flow oracle f; live = true } in
        Hashtbl.replace ids id c;
        c :: acc)
      [] flows
  in
  List.iter
    (fun v ->
      if Inc_oracle.mem oracle v then
        invalid_arg "Incremental.restore: duplicate placed vertices";
      Inc_oracle.add oracle v)
    placed;
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.count tel "migration_budget" migration_budget;
  Tdmd_obs.Telemetry.count tel "moves" moves;
  Tdmd_obs.Telemetry.count tel "arrivals" arrivals;
  Tdmd_obs.Telemetry.count tel "departures" departures;
  Tdmd_obs.Telemetry.count tel "rebalances" rebalances;
  Tdmd_obs.Telemetry.count tel "rebalance_moves" rebalance_moves;
  {
    graph;
    lambda;
    k;
    migration_budget;
    rev_flows;
    dead = 0;
    ids;
    oracle;
    placed;
    moves;
    rebalances;
    rebalance_moves;
    tel;
  }
