module Flow = Tdmd_flow.Flow

(* All placement decisions live in integer diminished-volume space (see
   bandwidth.ml / inc_oracle.ml): serving flow f at path position l is
   worth r_f · (hops_f − l) diminished edge-units, and the (1−λ) scaling
   happens only at the float reporting boundary.  Comparing exact
   integers instead of float marginals removes the old 1e-9 threshold
   (which silently suppressed every gain when 1−λ was tiny); a
   regression that reintroduces a float-literal comparison here is
   caught by tdmd-lint's [float-equal] rule. *)
let contrib rate hops l = if l > hops then 0 else rate * (hops - l)

(* A mutable-flow-set variant of [Inc_oracle]: the same inverted index
   and counters, but flows arrive and depart (per-vertex hash tables
   instead of frozen arrays), so every churn event costs
   O(path + flows-through-touched-vertices) instead of rebuilding an
   [Instance] over all live flows. *)
module Dyn = struct
  type entry = {
    flow : Flow.t;
    mutable first : int; (* serving path position; path length = unserved *)
  }

  type t = {
    index : (int, entry * int) Hashtbl.t array;
        (* vertex -> flow id -> (entry, path position) *)
    entries : (int, entry) Hashtbl.t; (* live flows by id *)
    placed : Bytes.t; (* vertex -> deployed? *)
    served_at : int array; (* vertex -> #flows served there *)
    mutable total_volume : int; (* Σ_f r_f · hops_f *)
    mutable dim_volume : int; (* Σ served r_f · (hops_f − first_f) *)
    mutable unserved : int;
  }

  (* One vertex op's worth of changed flows, for probe/undo.  [`Add]/
     [`Remove] record which placed bit to flip back; each pair is the
     entry plus its pre-op serving position. *)
  type token = { added : bool; vertex : int; changes : (entry * int) list }

  let create n =
    {
      index = Array.init n (fun _ -> Hashtbl.create 8);
      entries = Hashtbl.create 64;
      placed = Bytes.make n '\000';
      served_at = Array.make n 0;
      total_volume = 0;
      dim_volume = 0;
      unserved = 0;
    }

  let mem t v = Bytes.get t.placed v = '\001'
  let is_feasible t = t.unserved = 0
  let unserved_count t = t.unserved
  let dim_volume t = t.dim_volume
  let served_count t v = t.served_at.(v)

  (* Move [e] from serving position [e.first] to [pos], maintaining the
     dim-volume / unserved / served-at counters. *)
  let shift t e pos =
    let f = e.flow in
    let hops = Flow.hop_count f in
    let old = e.first in
    if old > hops then t.unserved <- t.unserved - 1
    else t.served_at.(f.Flow.path.(old)) <- t.served_at.(f.Flow.path.(old)) - 1;
    if pos > hops then t.unserved <- t.unserved + 1
    else t.served_at.(f.Flow.path.(pos)) <- t.served_at.(f.Flow.path.(pos)) + 1;
    t.dim_volume <-
      t.dim_volume + contrib f.Flow.rate hops pos - contrib f.Flow.rate hops old;
    e.first <- pos

  let do_add t v =
    Bytes.set t.placed v '\001';
    let changes = ref [] in
    Hashtbl.iter
      (fun _ (e, pos) ->
        if pos < e.first then begin
          changes := (e, e.first) :: !changes;
          shift t e pos
        end)
      t.index.(v);
    { added = true; vertex = v; changes = !changes }

  let do_remove t v =
    Bytes.set t.placed v '\000';
    let changes = ref [] in
    Hashtbl.iter
      (fun _ (e, pos) ->
        if pos = e.first then begin
          let path = e.flow.Flow.path in
          let len = Array.length path in
          (* Next deployed vertex down the path, or the unserved
             sentinel.  [v]'s bit is already clear, and paths repeat no
             vertex, so the scan is over the post-removal deployment. *)
          let q = ref (pos + 1) in
          while !q < len && Bytes.get t.placed path.(!q) = '\000' do
            incr q
          done;
          changes := (e, pos) :: !changes;
          shift t e !q
        end)
      t.index.(v);
    { added = false; vertex = v; changes = !changes }

  let apply_add t v = ignore (do_add t v)
  let apply_remove t v = ignore (do_remove t v)
  let probe_add = do_add
  let probe_remove = do_remove

  let undo t tok =
    Bytes.set t.placed tok.vertex (if tok.added then '\000' else '\001');
    List.iter (fun (e, old_first) -> shift t e old_first) tok.changes

  let add_flow t f =
    let path = f.Flow.path in
    let len = Array.length path in
    let hops = len - 1 in
    let first = ref 0 in
    while !first < len && Bytes.get t.placed path.(!first) = '\000' do
      incr first
    done;
    let e = { flow = f; first = !first } in
    Array.iteri (fun pos v -> Hashtbl.replace t.index.(v) f.Flow.id (e, pos)) path;
    Hashtbl.replace t.entries f.Flow.id e;
    t.total_volume <- t.total_volume + (f.Flow.rate * hops);
    if e.first > hops then t.unserved <- t.unserved + 1
    else begin
      t.dim_volume <- t.dim_volume + contrib f.Flow.rate hops e.first;
      t.served_at.(path.(e.first)) <- t.served_at.(path.(e.first)) + 1
    end

  let remove_flow t id =
    let e = Hashtbl.find t.entries id in
    let path = e.flow.Flow.path in
    let hops = Array.length path - 1 in
    Array.iter (fun v -> Hashtbl.remove t.index.(v) id) path;
    Hashtbl.remove t.entries id;
    t.total_volume <- t.total_volume - (e.flow.Flow.rate * hops);
    if e.first > hops then t.unserved <- t.unserved - 1
    else begin
      t.dim_volume <- t.dim_volume - contrib e.flow.Flow.rate hops e.first;
      t.served_at.(path.(e.first)) <- t.served_at.(path.(e.first)) - 1
    end

  let marginal t v =
    if mem t v then 0
    else
      Hashtbl.fold
        (fun _ (e, pos) acc ->
          if pos < e.first then begin
            let f = e.flow in
            let hops = Flow.hop_count f in
            acc + contrib f.Flow.rate hops pos - contrib f.Flow.rate hops e.first
          end
          else acc)
        t.index.(v) 0
end

(* Arrival-ordered flow store with O(1) arrive/depart: a newest-first
   list of liveness cells plus an id index.  Departure tombstones the
   cell; the list is compacted once tombstones outnumber live flows, so
   the store is amortised O(1) per event while [flows] still reads back
   the exact arrival order the server's snapshots depend on. *)
type cell = { cf : Flow.t; mutable live : bool }

type t = {
  graph : Tdmd_graph.Digraph.t;
  lambda : float;
  k : int;
  migration_budget : int; (* moves the rebalancer may spend per event *)
  mutable rev_flows : cell list; (* newest first, may contain tombstones *)
  mutable dead : int; (* tombstones still in [rev_flows] *)
  ids : (int, cell) Hashtbl.t; (* id index over live flows *)
  oracle : Dyn.t;
  mutable placed : int list; (* deployment, selection order *)
  mutable moves : int;
  mutable rebalances : int;
  mutable rebalance_moves : int;
  tel : Tdmd_obs.Telemetry.t;
}

let create ?(migration_budget = 0) ~graph ~lambda ~k () =
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
    oracle = Dyn.create (Tdmd_graph.Digraph.vertex_count graph);
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

(* Each live flow's consumption in arrival order against the oracle's
   deployed-vertex bytes, which mirror [t.placed] between events: the
   formula and summation order of [Bandwidth.total] over [instance t],
   so the same bits, without rebuilding and re-validating the instance. *)
let bandwidth t =
  let mask = t.oracle.Dyn.placed in
  List.fold_left
    (fun acc f -> acc +. Bandwidth.consumption_in ~lambda:t.lambda mask f)
    0.0 (flows t)

let feasible t = Dyn.is_feasible t.oracle
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

let set_placed t placed =
  let before = Placement.of_list t.placed in
  let after = Placement.of_list placed in
  let added =
    List.filter (fun v -> not (Placement.mem before v)) (Placement.to_list after)
  in
  let removed =
    List.filter (fun v -> not (Placement.mem after v)) (Placement.to_list before)
  in
  List.iter (Dyn.apply_remove t.oracle) removed;
  List.iter (Dyn.apply_add t.oracle) added;
  let n_moves = List.length added + List.length removed in
  t.moves <- t.moves + n_moves;
  Tdmd_obs.Telemetry.count t.tel "moves" n_moves;
  t.placed <- placed

(* Highest exact-integer marginal over undeployed vertices; strictly
   positive gains only, lowest vertex wins ties. *)
let best_marginal t =
  let best = ref (-1) and best_gain = ref 0 in
  for v = 0 to Tdmd_graph.Digraph.vertex_count t.graph - 1 do
    if not (Dyn.mem t.oracle v) then begin
      let g = Dyn.marginal t.oracle v in
      if g > !best_gain then begin
        best := v;
        best_gain := g
      end
    end
  done;
  if !best < 0 then None else Some !best

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
    let dim0 = Dyn.dim_volume t.oracle in
    let uns0 = Dyn.unserved_count t.oracle in
    let best = ref None in
    List.iter
      (fun u ->
        let tr = Dyn.probe_remove t.oracle u in
        (match best_marginal t with
        | Some v ->
          let ta = Dyn.probe_add t.oracle v in
          let net = Dyn.dim_volume t.oracle - dim0 in
          let ok = Dyn.unserved_count t.oracle <= uns0 in
          Dyn.undo t.oracle ta;
          if ok && net > 0 then begin
            match !best with
            | Some (bn, _, _) when bn >= net -> ()
            | _ -> best := Some (net, u, v)
          end
        | None -> ());
        Dyn.undo t.oracle tr)
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
  let c = { cf = f; live = true } in
  t.rev_flows <- c :: t.rev_flows;
  Hashtbl.replace t.ids f.Flow.id c;
  Dyn.add_flow t.oracle f;
  if not (Dyn.is_feasible t.oracle) then begin
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
        and best_gain = ref (Dyn.marginal t.oracle f.Flow.path.(0)) in
        Array.iter
          (fun v ->
            let g = Dyn.marginal t.oracle v in
            if g > !best_gain then begin
              best := v;
              best_gain := g
            end)
          f.Flow.path;
        if Dyn.mem t.oracle !best then t.placed else t.placed @ [ !best ]
      end
      else t.placed
    in
    set_placed t (Cover_fixup.within (instance t) ~chosen ~budget:t.k)
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
    Dyn.remove_flow t.oracle id;
    compact t);
  (* Boxes that serve nobody are pure waste now. *)
  let useful =
    List.filter (fun v -> Dyn.served_count t.oracle v > 0) t.placed
  in
  if List.length useful < List.length t.placed then set_placed t useful;
  (* Spend freed budget where it helps. *)
  (if List.length t.placed < t.k then
     match best_marginal t with
     | Some v -> set_placed t (t.placed @ [ v ])
     | None -> ());
  (* A departure can also unlock feasibility denied at a previous
     budget-exhausted event. *)
  if not (Dyn.is_feasible t.oracle) then
    set_placed t (Cover_fixup.within (instance t) ~chosen:t.placed ~budget:t.k);
  auto_rebalance t

(* Rebuild an engine bit-for-bit from an exported state (the server's
   snapshot file).  Both list orders are load-bearing: [flows] is the
   arrival order and [placed] the selection order, and both feed future
   decisions (serving positions, Cover_fixup's chosen order, swap
   scan order). *)
let restore ?(migration_budget = 0) ?(rebalances = 0) ?(rebalance_moves = 0)
    ~graph ~lambda ~k ~flows ~placed ~moves ~arrivals ~departures () =
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
  let ids = Hashtbl.create (max 64 (List.length flows)) in
  let rev_flows =
    List.fold_left
      (fun acc f ->
        let id = f.Flow.id in
        if Hashtbl.mem ids id then
          invalid_arg "Incremental.restore: duplicate flow ids";
        let c = { cf = f; live = true } in
        Hashtbl.replace ids id c;
        c :: acc)
      [] flows
  in
  let oracle = Dyn.create n in
  List.iter (Dyn.add_flow oracle) flows;
  List.iter
    (fun v ->
      if Dyn.mem oracle v then
        invalid_arg "Incremental.restore: duplicate placed vertices";
      Dyn.apply_add oracle v)
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
