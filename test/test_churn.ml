(* Churn-drift regression suite for the rewritten incremental engine.

   The heart of it is a differential test: [Legacy] below is a verbatim
   transcription of the pre-rewrite engine (list-based flow store, float
   marginals with the 1e-9 threshold, unguarded on-path argmax), and at
   [migration_budget 0] the rewritten engine must track it bit for bit
   over random churn timelines — same selection order, same move counts,
   same bandwidth floats.  At every migration budget the engine must
   also track [Reference.Churn], which takes the same decisions by
   rebuilding the instance and rescanning.  The remaining tests pin the
   individual bug fixes (deployed-winner guard, exact-integer marginals
   at extreme lambda, unknown-id departures) and the migration-budgeted
   rebalancer's accounting and restore semantics. *)

module Flow = Tdmd_flow.Flow
module Rng = Tdmd_prelude.Rng
module Inc = Tdmd.Incremental

(* ------------------------------------------------------------------ *)
(* The pre-rewrite engine, transcribed                                 *)
(* ------------------------------------------------------------------ *)

module Legacy = struct
  type t = {
    graph : Tdmd_graph.Digraph.t;
    lambda : float;
    k : int;
    mutable current : Flow.t list;  (* arrival order *)
    ids : (int, unit) Hashtbl.t;
    mutable placed : int list;      (* deployment, selection order *)
    mutable moves : int;
  }

  let create ~graph ~lambda ~k =
    { graph; lambda; k; current = []; ids = Hashtbl.create 64; placed = [];
      moves = 0 }

  let instance t =
    Tdmd.Instance.make ~graph:t.graph ~flows:t.current ~lambda:t.lambda

  let placement t = Tdmd.Placement.of_list t.placed
  let flows t = t.current
  let placed_order t = t.placed
  let bandwidth t = Tdmd.Bandwidth.total (instance t) (placement t)
  let feasible t = Tdmd.Allocation.is_feasible (instance t) (placement t)
  let moves t = t.moves

  let set_placed t placed =
    let before = Tdmd.Placement.of_list t.placed in
    let after = Tdmd.Placement.of_list placed in
    let added =
      List.length
        (List.filter
           (fun v -> not (Tdmd.Placement.mem before v))
           (Tdmd.Placement.to_list after))
    in
    let removed =
      List.length
        (List.filter
           (fun v -> not (Tdmd.Placement.mem after v))
           (Tdmd.Placement.to_list before))
    in
    t.moves <- t.moves + added + removed;
    t.placed <- placed

  (* The historical float threshold, kept verbatim: gains at or below
     1e-9 are invisible, which is the satellite bug pinned by
     [test_exact_marginal_extreme_lambda]. *)
  let best_marginal inst placed =
    let n = Tdmd.Instance.vertex_count inst in
    let p = Tdmd.Placement.of_list placed in
    let best = ref (-1) and best_gain = ref 1e-9 in
    for v = 0 to n - 1 do
      if not (Tdmd.Placement.mem p v) then begin
        let g = Reference.marginal inst p v in
        if g > !best_gain then begin
          best := v;
          best_gain := g
        end
      end
    done;
    if !best < 0 then None else Some !best

  let arrive t f =
    if Hashtbl.mem t.ids f.Flow.id then
      invalid_arg "Legacy.arrive: duplicate flow id";
    (match Flow.validate t.graph f with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Legacy.arrive: " ^ msg));
    t.current <- t.current @ [ f ];
    Hashtbl.replace t.ids f.Flow.id ();
    let inst = instance t in
    if not (Tdmd.Allocation.is_feasible inst (placement t)) then begin
      let chosen =
        if List.length t.placed < t.k then begin
          let candidates = Array.to_list f.Flow.path in
          let p = placement t in
          let best =
            Tdmd_prelude.Listx.max_by
              (fun v -> Reference.marginal inst p v)
              candidates
          in
          (* Unguarded: [best] may already be deployed (the
             zero-marginal tie), in which case this appends a
             duplicate that only Cover_fixup's dedup hides. *)
          t.placed @ [ best ]
        end
        else t.placed
      in
      set_placed t
        (Tdmd.Cover_fixup.within (Tdmd.Inc_oracle.create inst) ~chosen ~budget:t.k)
    end

  let depart t id =
    t.current <- List.filter (fun f -> f.Flow.id <> id) t.current;
    Hashtbl.remove t.ids id;
    let inst = instance t in
    let p = placement t in
    let servers =
      Array.to_list (Tdmd.Allocation.all inst p)
      |> List.filter_map (function
           | Tdmd.Allocation.Served_at { vertex; _ } -> Some vertex
           | Tdmd.Allocation.Unserved -> None)
    in
    let useful = List.filter (fun v -> List.mem v servers) t.placed in
    if List.length useful < List.length t.placed then set_placed t useful;
    (if List.length t.placed < t.k then
       match best_marginal inst t.placed with
       | Some v -> set_placed t (t.placed @ [ v ])
       | None -> ());
    if not (Tdmd.Allocation.is_feasible inst (placement t)) then
      set_placed t
        (Tdmd.Cover_fixup.within (Tdmd.Inc_oracle.create inst) ~chosen:t.placed
           ~budget:t.k)
end

(* ------------------------------------------------------------------ *)
(* Timeline scaffolding                                                *)
(* ------------------------------------------------------------------ *)

type event = Arrive of Flow.t | Depart of int

(* A deterministic arrive/depart timeline over random shortest paths.
   Departures pick a uniformly random live flow, so the schedule is a
   function of the seed alone. *)
let random_timeline rng g ~events =
  let n = Tdmd_graph.Digraph.vertex_count g in
  let next_id = ref 0 in
  let live = ref [] in
  let out = ref [] in
  let tries = ref 0 in
  while List.length !out < events && !tries < events * 20 do
    incr tries;
    if Rng.float rng 1.0 < 0.65 || !live = [] then begin
      let src = Rng.int rng n and dst = Rng.int rng n in
      if src <> dst then
        match Tdmd_graph.Bfs.shortest_path g ~src ~dst with
        | Some path ->
          let f = Flow.make ~id:!next_id ~rate:(Rng.int_in rng 1 5) ~path in
          incr next_id;
          live := f.Flow.id :: !live;
          out := Arrive f :: !out
        | None -> ()
    end
    else begin
      let ids = !live in
      let victim = List.nth ids (Rng.int rng (List.length ids)) in
      live := List.filter (fun id -> id <> victim) ids;
      out := Depart victim :: !out
    end
  done;
  List.rev !out

let apply_inc t = function
  | Arrive f -> Inc.arrive t f
  | Depart id -> Inc.depart t id

let apply_legacy t = function
  | Arrive f -> Legacy.arrive t f
  | Depart id -> Legacy.depart t id

let check_no_dup ctx placed =
  let sorted = List.sort compare placed in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then true else dup rest
    | _ -> false
  in
  if dup sorted then
    Alcotest.failf "%s: duplicate vertex in placed order [%s]" ctx
      (String.concat ";" (List.map string_of_int placed))

let flow_ids fs = List.map (fun f -> f.Flow.id) fs

(* ------------------------------------------------------------------ *)
(* Differential: budget 0 is bit-identical to the legacy engine        *)
(* ------------------------------------------------------------------ *)

let test_budget0_bit_identical () =
  for seed = 1 to 12 do
    let rng = Rng.create seed in
    let n = 8 + Rng.int rng 8 in
    let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.3 in
    let k = 2 + Rng.int rng 3 in
    let timeline = random_timeline rng g ~events:70 in
    let t = Inc.create ~graph:g ~lambda:0.5 ~k () in
    let l = Legacy.create ~graph:g ~lambda:0.5 ~k in
    List.iteri
      (fun i ev ->
        apply_inc t ev;
        apply_legacy l ev;
        let ctx = Printf.sprintf "seed %d event %d" seed i in
        check_no_dup ctx (Inc.placed_order t);
        Alcotest.(check (list int))
          (ctx ^ ": placed order") (Legacy.placed_order l) (Inc.placed_order t);
        Alcotest.(check int) (ctx ^ ": moves") (Legacy.moves l) (Inc.moves t);
        Alcotest.(check (list int))
          (ctx ^ ": flow order") (flow_ids (Legacy.flows l)) (flow_ids (Inc.flows t));
        Alcotest.(check bool)
          (ctx ^ ": feasible") (Legacy.feasible l) (Inc.feasible t);
        Alcotest.(check (float 0.0))
          (ctx ^ ": bandwidth") (Legacy.bandwidth l) (Inc.bandwidth t))
      timeline;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no rebalance passes at budget 0" seed)
      0 (Inc.rebalances t)
  done

(* ------------------------------------------------------------------ *)
(* Satellite: deployed winner of a zero-marginal tie is not appended   *)
(* ------------------------------------------------------------------ *)

(* Two disconnected edges.  Restore a state where flow C is stranded
   (the historical engine could leave one behind at a budget-exhausted
   event) with deployment budget to spare, then arrive a flow whose
   first hop already carries a box: every on-path marginal is zero, so
   the historical argmax "wins" at the deployed vertex 0 and appends it
   again.  The guard must turn that into a no-op pick so the fix-up
   serves C without wasting a slot on a duplicate (or on a useless
   zero-gain vertex). *)
let test_arrive_guard_deployed_winner () =
  let g = Tdmd_graph.Digraph.create 4 in
  Tdmd_graph.Digraph.add_undirected g 0 1;
  Tdmd_graph.Digraph.add_undirected g 2 3;
  let a = Flow.make ~id:1 ~rate:1 ~path:[ 0; 1 ] in
  let c = Flow.make ~id:2 ~rate:1 ~path:[ 2; 3 ] in
  let t =
    Inc.restore ~graph:g ~lambda:0.5 ~k:3 ~flows:[ a; c ] ~placed:[ 0 ]
      ~moves:1 ~arrivals:2 ~departures:0 ()
  in
  Alcotest.(check bool) "restored state is infeasible" false (Inc.feasible t);
  Inc.arrive t (Flow.make ~id:3 ~rate:1 ~path:[ 0; 1 ]);
  check_no_dup "after tie arrival" (Inc.placed_order t);
  Alcotest.(check (list int))
    "fix-up serves the stranded flow without wasting a slot" [ 0; 2 ]
    (Inc.placed_order t);
  Alcotest.(check bool) "feasible after fix-up" true (Inc.feasible t);
  Alcotest.(check int) "exactly one move spent" 2 (Inc.moves t)

(* ------------------------------------------------------------------ *)
(* Satellite: exact integer marginals survive extreme lambda           *)
(* ------------------------------------------------------------------ *)

(* At lambda = 1.0 every float marginal is exactly 0.0, so the legacy
   1e-9 threshold never spends freed budget — a departure leaves flows
   served at late path positions even though moving a box upstream has
   positive diminished-volume gain.  The integer engine must not care
   about the float scale. *)
let test_exact_marginal_extreme_lambda () =
  let g = Tdmd_graph.Digraph.create 6 in
  for v = 0 to 4 do
    Tdmd_graph.Digraph.add_undirected g v (v + 1)
  done;
  let run arrive depart placed_of engine =
    arrive engine (Flow.make ~id:1 ~rate:1 ~path:[ 4; 5 ]);
    arrive engine (Flow.make ~id:2 ~rate:1 ~path:[ 2; 3; 4; 5 ]);
    depart engine 1;
    placed_of engine
  in
  let legacy =
    run Legacy.arrive Legacy.depart Legacy.placed_order
      (Legacy.create ~graph:g ~lambda:1.0 ~k:2)
  in
  let fixed =
    run Inc.arrive Inc.depart Inc.placed_order
      (Inc.create ~graph:g ~lambda:1.0 ~k:2 ())
  in
  (* The legacy engine is blind: the box stays where flow 1 put it. *)
  Alcotest.(check (list int)) "legacy leaves the box downstream" [ 4 ] legacy;
  (* The integer engine spends the freed slot at flow 2's first hop. *)
  Alcotest.(check (list int)) "integer engine serves the first hop" [ 4; 2 ]
    fixed;
  let dim placed =
    let inst =
      Tdmd.Instance.make ~graph:g
        ~flows:[ Flow.make ~id:2 ~rate:1 ~path:[ 2; 3; 4; 5 ] ]
        ~lambda:1.0
    in
    Tdmd.Bandwidth.diminished_volume inst (Tdmd.Placement.of_list placed)
  in
  Alcotest.(check bool) "strictly more diminished volume" true
    (dim fixed > dim legacy)

(* ------------------------------------------------------------------ *)
(* Satellite: unknown departures raise instead of counting             *)
(* ------------------------------------------------------------------ *)

let test_unknown_depart_raises () =
  let g = Tdmd_graph.Digraph.create 2 in
  Tdmd_graph.Digraph.add_undirected g 0 1;
  let t = Inc.create ~graph:g ~lambda:0.5 ~k:1 () in
  Inc.arrive t (Flow.make ~id:7 ~rate:1 ~path:[ 0; 1 ]);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Incremental.depart: unknown flow id") (fun () ->
      Inc.depart t 99);
  Alcotest.(check bool) "live flow untouched" true (Inc.mem_flow t 7);
  Alcotest.(check int) "flow count untouched" 1 (Inc.flow_count t);
  Inc.depart t 7;
  Alcotest.check_raises "double depart"
    (Invalid_argument "Incremental.depart: unknown flow id") (fun () ->
      Inc.depart t 7)

(* ------------------------------------------------------------------ *)
(* Satellite: arrival-ordered store survives tombstone compaction      *)
(* ------------------------------------------------------------------ *)

let test_flow_store_order_and_compaction () =
  let g = Tdmd_graph.Digraph.create 3 in
  Tdmd_graph.Digraph.add_undirected g 0 1;
  Tdmd_graph.Digraph.add_undirected g 1 2;
  let t = Inc.create ~graph:g ~lambda:0.5 ~k:1 () in
  for id = 0 to 119 do
    Inc.arrive t (Flow.make ~id ~rate:1 ~path:[ 0; 1; 2 ])
  done;
  (* Drop the first 100 in a scattered order: >64 tombstones and more
     dead than live forces a compaction pass. *)
  for i = 0 to 99 do
    Inc.depart t ((i * 37) mod 100)
  done;
  Alcotest.(check int) "live count" 20 (Inc.flow_count t);
  Alcotest.(check (list int)) "survivors in arrival order"
    (Tdmd_prelude.Listx.range 100 119)
    (flow_ids (Inc.flows t));
  for id = 200 to 204 do
    Inc.arrive t (Flow.make ~id ~rate:1 ~path:[ 2; 1; 0 ])
  done;
  Alcotest.(check (list int)) "appends keep arrival order"
    (Tdmd_prelude.Listx.range 100 119 @ Tdmd_prelude.Listx.range 200 204)
    (flow_ids (Inc.flows t));
  Alcotest.(check bool) "index agrees" true
    (Inc.mem_flow t 200 && not (Inc.mem_flow t 63))

(* ------------------------------------------------------------------ *)
(* Rebalancer: budget accounting and monotone improvement              *)
(* ------------------------------------------------------------------ *)

let dim_of t =
  Tdmd.Bandwidth.diminished_volume (Inc.instance t) (Inc.placement t)

let test_rebalance_accounting () =
  for seed = 21 to 26 do
    let rng = Rng.create seed in
    let g = Tdmd_topo.Topo_general.erdos_renyi rng 12 ~p:0.3 in
    let budget = 1 + Rng.int rng 4 in
    let timeline = random_timeline rng g ~events:50 in
    let t = Inc.create ~migration_budget:budget ~graph:g ~lambda:0.5 ~k:3 () in
    List.iteri
      (fun i ev ->
        apply_inc t ev;
        let ctx = Printf.sprintf "seed %d event %d" seed i in
        check_no_dup ctx (Inc.placed_order t);
        if List.length (Inc.placed_order t) > 3 then
          Alcotest.failf "%s: deployment exceeds k" ctx)
      timeline;
    let events = List.length timeline in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: one auto pass per event" seed)
      events (Inc.rebalances t);
    if Inc.rebalance_moves t > events * budget then
      Alcotest.failf "seed %d: rebalance overspent (%d moves, budget %d/event)"
        seed (Inc.rebalance_moves t) budget;
    if Inc.moves t < Inc.rebalance_moves t then
      Alcotest.failf "seed %d: rebalance moves not part of total moves" seed;
    (* An explicit pass never hurts: zero budget is a no-op, a large
       budget only grows served diminished volume. *)
    let before = dim_of t and placed_before = Inc.placed_order t in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: zero-budget pass spends nothing" seed)
      0
      (Inc.rebalance ~budget:0 t);
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: zero-budget pass moves nothing" seed)
      placed_before (Inc.placed_order t);
    let spent = Inc.rebalance ~budget:40 t in
    if spent > 40 then Alcotest.failf "seed %d: pass overspent" seed;
    if dim_of t < before then
      Alcotest.failf "seed %d: rebalance lost diminished volume (%d -> %d)"
        seed before (dim_of t)
  done

let test_budget_dominates_pin_only () =
  (* Same timeline, budget 0 vs a finite budget: migrations may only
     buy bandwidth, never cost it, on the final snapshot. *)
  let bw budget seed =
    let rng = Rng.create seed in
    let g = Tdmd_topo.Topo_general.erdos_renyi rng 14 ~p:0.25 in
    let timeline = random_timeline rng g ~events:60 in
    let t = Inc.create ~migration_budget:budget ~graph:g ~lambda:0.5 ~k:3 () in
    List.iter (apply_inc t) timeline;
    (Inc.bandwidth t, Inc.moves t)
  in
  List.iter
    (fun seed ->
      let pin, pin_moves = bw 0 seed in
      let lrs, lrs_moves = bw 6 seed in
      if lrs > pin +. 1e-9 then
        Alcotest.failf "seed %d: budget 6 worse than pin-only (%.3f > %.3f)"
          seed lrs pin;
      if lrs_moves < pin_moves then
        Alcotest.failf "seed %d: rebalancing spent fewer total moves" seed)
    [ 31; 32; 33 ]

(* ------------------------------------------------------------------ *)
(* Restore round-trips the rebalancer state                            *)
(* ------------------------------------------------------------------ *)

let test_restore_roundtrip_with_budget () =
  for seed = 41 to 44 do
    let rng = Rng.create seed in
    let g = Tdmd_topo.Topo_general.erdos_renyi rng 12 ~p:0.3 in
    let timeline = random_timeline rng g ~events:60 in
    let past = Tdmd_prelude.Listx.take 40 timeline in
    let future = List.filteri (fun i _ -> i >= 40) timeline in
    let t = Inc.create ~migration_budget:2 ~graph:g ~lambda:0.5 ~k:3 () in
    List.iter (apply_inc t) past;
    let arrivals =
      List.length (List.filter (function Arrive _ -> true | _ -> false) past)
    in
    let departures = List.length past - arrivals in
    let r =
      Inc.restore ~migration_budget:(Inc.migration_budget t)
        ~rebalances:(Inc.rebalances t) ~rebalance_moves:(Inc.rebalance_moves t)
        ~graph:g ~lambda:0.5 ~k:3 ~flows:(Inc.flows t)
        ~placed:(Inc.placed_order t) ~moves:(Inc.moves t) ~arrivals ~departures
        ()
    in
    let ctx = Printf.sprintf "seed %d" seed in
    Alcotest.(check (float 0.0))
      (ctx ^ ": bandwidth restored") (Inc.bandwidth t) (Inc.bandwidth r);
    Alcotest.(check bool)
      (ctx ^ ": feasibility restored") (Inc.feasible t) (Inc.feasible r);
    (* Bit-identical future: every subsequent event, including the
       automatic rebalance passes, must take the same decisions. *)
    List.iteri
      (fun i ev ->
        apply_inc t ev;
        apply_inc r ev;
        let ctx = Printf.sprintf "%s future event %d" ctx i in
        Alcotest.(check (list int))
          (ctx ^ ": placed order") (Inc.placed_order t) (Inc.placed_order r);
        Alcotest.(check int) (ctx ^ ": moves") (Inc.moves t) (Inc.moves r);
        Alcotest.(check int)
          (ctx ^ ": rebalances") (Inc.rebalances t) (Inc.rebalances r);
        Alcotest.(check int)
          (ctx ^ ": rebalance moves") (Inc.rebalance_moves t)
          (Inc.rebalance_moves r))
      future
  done

(* ------------------------------------------------------------------ *)
(* Incremental.bandwidth renders without rebuilding the instance       *)
(* ------------------------------------------------------------------ *)

(* After every arrive/depart/rebalance event, the engine's O(1) volume
   must equal a list-membership scan over the rebuilt [Inc.instance],
   and its bandwidth must carry the exact bits of that volume's
   render. *)
let prop_bandwidth_bits =
  QCheck.Test.make ~name:"Incremental.bandwidth = rebuilt-instance total, bit for bit"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 0 3))
    (fun (seed, li) ->
      let lambda = [| 0.0; 0.3; 0.5; 1.0 |].(li) in
      let rng = Rng.create seed in
      let n = 6 + Rng.int rng 8 in
      let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.3 in
      let k = 1 + Rng.int rng 4 in
      let t = Inc.create ~migration_budget:(Rng.int rng 3) ~graph:g ~lambda ~k () in
      let bits () =
        Inc.volume t = Reference.diminished_volume (Inc.instance t) (Inc.placement t)
        && Int64.bits_of_float (Inc.bandwidth t)
           = Int64.bits_of_float (Reference.total (Inc.instance t) (Inc.placement t))
      in
      List.for_all
        (fun ev ->
          apply_inc t ev;
          if Rng.int rng 4 = 0 then ignore (Inc.rebalance ~budget:(Rng.int rng 5) t);
          bits ())
        (random_timeline rng g ~events:40))

(* ------------------------------------------------------------------ *)
(* Differential: every migration budget against a from-scratch engine  *)
(* ------------------------------------------------------------------ *)

(* Random arrive/depart timelines with explicit rebalance passes mixed
   in, at migration budgets 0, 1, 2 and 4: after every step the engine
   must match [Reference.Churn] (decisions from instance rebuilds and
   full scans) on every observation, bandwidth to the bit.  Midway the
   engine is rebuilt from its exported state with [restore], and the
   rebuilt engine must keep matching. *)
let prop_budgeted_reference =
  QCheck.Test.make ~name:"budgeted churn = from-scratch reference engine, bit for bit"
    ~count:60
    QCheck.(triple (int_bound 1_000_000) (int_range 0 3) (int_range 0 2))
    (fun (seed, bi, li) ->
      let migration_budget = [| 0; 1; 2; 4 |].(bi) in
      let lambda = [| 0.0; 0.5; 1.0 |].(li) in
      let rng = Rng.create seed in
      let n = 6 + Rng.int rng 8 in
      let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.3 in
      let k = 1 + Rng.int rng 4 in
      let timeline = random_timeline rng g ~events:40 in
      let restore_at = Rng.int rng (List.length timeline + 1) in
      let r = Reference.Churn.create ~migration_budget ~graph:g ~lambda ~k in
      let t = ref (Inc.create ~migration_budget ~graph:g ~lambda ~k ()) in
      let arrivals = ref 0 and departures = ref 0 in
      let restore () =
        let e = !t in
        t :=
          Inc.restore ~migration_budget ~rebalances:(Inc.rebalances e)
            ~rebalance_moves:(Inc.rebalance_moves e) ~graph:g ~lambda ~k
            ~flows:(Inc.flows e) ~placed:(Inc.placed_order e) ~moves:(Inc.moves e)
            ~arrivals:!arrivals ~departures:!departures ()
      in
      let same () =
        let e = !t in
        Inc.placed_order e = r.Reference.Churn.placed
        && Inc.moves e = r.Reference.Churn.moves
        && Inc.rebalances e = r.Reference.Churn.rebalances
        && Inc.rebalance_moves e = r.Reference.Churn.rebalance_moves
        && Inc.feasible e = Reference.Churn.feasible r
        && Inc.flow_count e = List.length r.Reference.Churn.flows
        && Int64.bits_of_float (Inc.bandwidth e)
           = Int64.bits_of_float (Reference.Churn.bandwidth r)
      in
      List.for_all
        (fun (i, ev) ->
          if i = restore_at then restore ();
          (match ev with
          | Arrive f ->
            incr arrivals;
            Inc.arrive !t f;
            Reference.Churn.arrive r f
          | Depart id ->
            incr departures;
            Inc.depart !t id;
            Reference.Churn.depart r id);
          let spent_ok =
            if Rng.int rng 4 > 0 then true
            else begin
              let budget = Rng.int rng 5 in
              Inc.rebalance ~budget !t = Reference.Churn.rebalance ~budget r
            end
          in
          spent_ok && same ())
        (List.mapi (fun i ev -> (i, ev)) timeline))

let suite =
  [
    Alcotest.test_case "budget 0 is bit-identical to the legacy engine" `Quick
      test_budget0_bit_identical;
    Alcotest.test_case "deployed winner of a zero-marginal tie is guarded"
      `Quick test_arrive_guard_deployed_winner;
    Alcotest.test_case "integer marginals survive lambda = 1.0" `Quick
      test_exact_marginal_extreme_lambda;
    Alcotest.test_case "unknown departures raise" `Quick
      test_unknown_depart_raises;
    Alcotest.test_case "flow store keeps arrival order across compaction"
      `Quick test_flow_store_order_and_compaction;
    Alcotest.test_case "rebalance accounting respects the budget" `Quick
      test_rebalance_accounting;
    Alcotest.test_case "finite budgets never lose to pin-only" `Quick
      test_budget_dominates_pin_only;
    Alcotest.test_case "restore round-trips the rebalancer state" `Quick
      test_restore_roundtrip_with_budget;
    QCheck_alcotest.to_alcotest prop_bandwidth_bits;
    QCheck_alcotest.to_alcotest prop_budgeted_reference;
  ]
