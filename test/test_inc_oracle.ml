(* Differential tests: the incremental decrement oracle must agree with
   the from-scratch naive path bit-for-bit — same diminished volumes,
   same marginals, same greedy/CELF/HAT selections, same bandwidth.
   Exactness is by construction (all bookkeeping in integer
   diminished-volume units, λ applied once at the float boundary), and
   these properties lock it in over randomized instances. *)

open Tdmd_prelude
module S = Tdmd_submod.Submodular
module O = Tdmd.Inc_oracle

let dyadic_lambda rng =
  (* Dyadic λ keeps the legacy per-flow float summation exact too, so
     bandwidth comparisons below can demand exact equality. *)
  match Rng.int rng 4 with
  | 0 -> 0.0
  | 1 -> 0.25
  | 2 -> 0.5
  | _ -> 0.75

(* (a) Random add/remove/undo sequences tracked against a shadow
   placement stack: volume, feasibility and marginals must match the
   naive recomputation after every operation. *)
let prop_ops_differential =
  QCheck.Test.make ~name:"inc oracle = naive scan under random add/remove/undo"
    ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(dyadic_lambda rng)
      in
      let t = O.create inst in
      (* Shadow stack: current placement on top, one entry per journaled
         op (no-ops push their unchanged placement, mirroring the
         journal's Untouched entries). *)
      let stack = ref [ Tdmd.Placement.empty ] in
      let current () = List.hd !stack in
      let ok = ref true in
      let check () =
        let p = current () in
        let v = Rng.int rng n in
        let pv = Tdmd.Placement.add p v in
        ok :=
          !ok
          && O.diminished_volume t = Reference.diminished_volume inst p
          && O.is_feasible t = Reference.is_feasible inst p
          && O.size t = Tdmd.Placement.size p
          && Tdmd.Placement.to_list (O.placement t) = Tdmd.Placement.to_list p
          && O.bandwidth t = Reference.total inst p
          && O.marginal_volume t v
             = Reference.diminished_volume inst pv - Reference.diminished_volume inst p
          && O.newly_served t v
             = List.length (Reference.unserved inst p)
               - List.length (Reference.unserved inst pv)
          && O.bandwidth_at t (O.diminished_volume t + O.marginal_volume t v)
             = Reference.total inst pv
      in
      for _ = 1 to 60 do
        (match Rng.int rng 5 with
        | 0 | 1 ->
          let v = Rng.int rng n in
          O.add t v;
          stack := Tdmd.Placement.add (current ()) v :: !stack
        | 2 | 3 ->
          let v = Rng.int rng n in
          O.remove t v;
          stack := Tdmd.Placement.remove (current ()) v :: !stack
        | _ ->
          if List.length !stack > 1 then begin
            O.undo t;
            stack := List.tl !stack
          end);
        check ()
      done;
      !ok)

(* (a') The churn oracle: flows enter through [add_flow] and leave
   through [remove_flow] (vacated slots are reused) between deployment
   edits and resets; after every step it must answer like the naive
   scans over an instance rebuilt from the live flows.  An oracle over
   an instance refuses flow edits. *)
let prop_flow_edits_differential =
  QCheck.Test.make ~name:"inc oracle with flow edits = naive scan of the live flows"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(dyadic_lambda rng)
      in
      let pool = inst.Tdmd.Instance.flows and lambda = inst.Tdmd.Instance.lambda in
      let t = O.empty ~vertices:n ~lambda in
      let live = ref [] in
      let check () =
        let r =
          Tdmd.Instance.make ~graph:inst.Tdmd.Instance.graph
            ~flows:(List.map fst !live) ~lambda
        in
        let p = O.placement t in
        let v = Rng.int rng n in
        let pv = Tdmd.Placement.add p v in
        let served_at =
          Array.exists
            (function
              | Tdmd.Allocation.Served_at { vertex; _ } -> vertex = v
              | Tdmd.Allocation.Unserved -> false)
            (Reference.all r p)
        in
        O.diminished_volume t = Reference.diminished_volume r p
        && O.is_feasible t = Reference.is_feasible r p
        && O.unserved_count t = List.length (Reference.unserved r p)
        && O.bandwidth t = Reference.total r p
        && O.marginal_volume t v
           = Reference.diminished_volume r pv - Reference.diminished_volume r p
        && O.newly_served t v
           = List.length (Reference.unserved r p) - List.length (Reference.unserved r pv)
        && O.serves t v = served_at
      in
      let step () =
        match Rng.int rng 9 with
        | 0 | 1 ->
          let f = pool.(Rng.int rng (Array.length pool)) in
          if not (List.mem_assq f !live) then live := (f, O.add_flow t f) :: !live
        | 2 | 3 -> (
          match !live with
          | [] -> ()
          | l ->
            let f, slot = List.nth l (Rng.int rng (List.length l)) in
            O.remove_flow t slot;
            live := List.remove_assq f l)
        | 4 | 5 -> O.add t (Rng.int rng n)
        | 6 | 7 -> O.remove t (Rng.int rng n)
        | _ -> O.reset t
      in
      let ok = ref true in
      for _ = 1 to 80 do
        step ();
        ok := !ok && check ()
      done;
      !ok
      && (try
            ignore (O.add_flow (O.create inst) pool.(0));
            false
          with Invalid_argument _ -> true))

(* (a'') The gain ledger behind [marginal_volume]/[newly_served]: each
   half is built by the first query that reads it after [create],
   [empty] or [reset] and kept current by every edit after that.  Queries come on a seed-chosen
   share of the steps (never, about one in three, or every step), so
   edits run both before the ledger exists and while it is maintained;
   each query compares every vertex with the from-scratch volume and
   unserved counts.  The tail undoes straight after a query, then
   resets, edits and queries again.  Both constructors; zero-hop flows
   ride along. *)
let prop_ledger_differential =
  QCheck.Test.make ~name:"inc oracle gain ledger = from-scratch marginals, built or not"
    ~count:150
    QCheck.(triple (int_bound 1_000_000) (int_range 4 14) bool)
    (fun (seed, n, owned) ->
      (* A failing case shrinks [n] past the range; the fixture needs two
         vertices to draw a flow. *)
      let n = max 4 n in
      let rng = Rng.create seed in
      let base =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(dyadic_lambda rng)
      in
      let graph = base.Tdmd.Instance.graph and lambda = base.Tdmd.Instance.lambda in
      let singles =
        List.init 2 (fun i ->
            Tdmd_flow.Flow.make ~id:(1000 + i) ~rate:(Rng.int_in rng 1 6)
              ~path:[ Rng.int rng n ])
      in
      let inst =
        Tdmd.Instance.make ~graph ~flows:(Tdmd.Instance.flows base @ singles) ~lambda
      in
      let pool = inst.Tdmd.Instance.flows in
      let t = if owned then O.empty ~vertices:n ~lambda else O.create inst in
      (* Live flows with their slots (unused for [create]). *)
      let live = ref (if owned then [] else List.map (fun f -> (f, -1)) (Array.to_list pool)) in
      (* Shadow deployment stack, one entry per journaled op. *)
      let stack = ref [ Tdmd.Placement.empty ] in
      let current () = List.hd !stack in
      let ok = ref true in
      (* A query reads the gains, the unserved counts or both, so each
         half of the ledger is built and kept at its own times. *)
      let query () =
        let r = Tdmd.Instance.make ~graph ~flows:(List.map fst !live) ~lambda in
        let p = current () in
        let volume = Reference.diminished_volume r p in
        let unserved = List.length (Reference.unserved r p) in
        let halves = Rng.int rng 3 in
        for v = 0 to n - 1 do
          let pv = Tdmd.Placement.add p v in
          ok :=
            !ok
            && (halves = 1
               || O.marginal_volume t v = Reference.diminished_volume r pv - volume)
            && (halves = 0
               || O.newly_served t v = unserved - List.length (Reference.unserved r pv))
        done
      in
      let add v =
        O.add t v;
        stack := Tdmd.Placement.add (current ()) v :: !stack
      in
      let remove v =
        O.remove t v;
        stack := Tdmd.Placement.remove (current ()) v :: !stack
      in
      let undo () =
        if List.length !stack > 1 then begin
          O.undo t;
          stack := List.tl !stack
        end
      in
      let reset () =
        O.reset t;
        stack := [ Tdmd.Placement.empty ]
      in
      (* A flow edit clears the journal; a vacated slot is reused. *)
      let flow_edit () =
        (if Rng.bool rng then begin
           let f = pool.(Rng.int rng (Array.length pool)) in
           if not (List.mem_assq f !live) then live := (f, O.add_flow t f) :: !live
         end
         else
           match !live with
           | [] -> ()
           | l ->
             let f, slot = List.nth l (Rng.int rng (List.length l)) in
             O.remove_flow t slot;
             live := List.remove_assq f l);
        stack := [ current () ]
      in
      let step () =
        match Rng.int rng (if owned then 10 else 8) with
        | 0 | 1 | 2 -> add (Rng.int rng n)
        | 3 | 4 -> remove (Rng.int rng n)
        | 5 | 6 -> undo ()
        | 7 -> reset ()
        | _ -> flow_edit ()
      in
      let every = match Rng.int rng 3 with 0 -> 0 | 1 -> 3 | _ -> 1 in
      for _ = 1 to 60 do
        step ();
        if every > 0 && Rng.int rng every = 0 then query ()
      done;
      query ();
      add (Rng.int rng n);
      query ();
      undo ();
      query ();
      reset ();
      add (Rng.int rng n);
      remove (Rng.int rng n);
      add (Rng.int rng n);
      query ();
      !ok)

(* (b) Greedy / CELF over the submodular machinery: the incremental
   oracle must make the same selections with the same gains as the naive
   full-rescan oracle — exact float equality, no tolerance. *)
let prop_greedy_differential =
  QCheck.Test.make ~name:"greedy & CELF: incremental oracle = naive oracle"
    ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(Rng.float rng 1.0)
      in
      let k = 1 + Rng.int rng n in
      let same select =
        let a = select ~k (Reference.oracle_naive inst) in
        let b = select ~k (Tdmd.Bandwidth.oracle inst) in
        a.S.chosen = b.S.chosen
        && a.S.gains = b.S.gains
        && Tdmd.Bandwidth.total inst (Tdmd.Placement.of_list a.S.chosen)
           = Tdmd.Bandwidth.total inst (Tdmd.Placement.of_list b.S.chosen)
      in
      same (fun ~k o -> S.greedy ~k o) && same (fun ~k o -> S.lazy_greedy ~k o))

(* (c) End-to-end GTP / CELF against the from-scratch reference (naive
   oracle, naive cover fix-up): identical placement, bandwidth and
   feasibility. *)
let prop_gtp_run_differential =
  QCheck.Test.make ~name:"Gtp.run/run_celf: incremental = naive" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 4 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:5
          ~lambda:(Rng.float rng 1.0)
      in
      let budget = 1 + Rng.int rng n in
      let same select run =
        let a = Reference.gtp select ~budget inst in
        let b = run ~budget inst in
        Tdmd.Placement.to_list a = Tdmd.Placement.to_list b.Tdmd.Solver_intf.placement
        && Tdmd.Bandwidth.total inst a = b.Tdmd.Solver_intf.bandwidth
        && Tdmd.Allocation.is_feasible inst a = b.Tdmd.Solver_intf.feasible
      in
      same
        (fun ~stop ~k o -> S.greedy ~stop ~k o)
        (fun ~budget i -> Tdmd.Gtp.run ~budget i)
      && same
           (fun ~stop ~k o -> S.lazy_greedy ~stop ~k o)
           (fun ~budget i -> Tdmd.Gtp.run_celf ~budget i))

(* (d) HAT on random trees: the Δb probes answered by the oracle mirror
   must reproduce the merge sequence of the from-scratch reference
   exactly. *)
let prop_hat_differential =
  QCheck.Test.make ~name:"Hat.run: incremental = naive" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 4 16))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_tree_instance rng ~n ~max_rate:6
          ~lambda:(Rng.float rng 1.0)
      in
      let k = 1 + Rng.int rng n in
      let a, merges = Reference.hat ~k inst in
      let b = Tdmd.Hat.run ~k inst in
      Tdmd.Placement.to_list a = Tdmd.Placement.to_list b.Tdmd.Solver_intf.placement
      && Tdmd.Bandwidth.total (Tdmd.Instance.Tree.to_general inst) a
         = b.Tdmd.Solver_intf.bandwidth
      && merges = Fixtures.count b "merges")

(* (e) Cover_fixup.within against the naive reference of the same
   algorithm in test/reference.ml (prefix rule, repeated best-cover
   picks, feasibility by full rescan).  [chosen] may repeat vertices
   and name up to twice the budget. *)
let prop_cover_fixup_differential =
  QCheck.Test.make ~name:"Cover_fixup.within: oracle path = naive reference"
    ~count:80
    QCheck.(pair (int_bound 1_000_000) (int_range 4 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:5
          ~lambda:0.5
      in
      let budget = 1 + Rng.int rng n in
      let chosen =
        List.init (Rng.int rng ((2 * budget) + 1)) (fun _ -> Rng.int rng n)
      in
      let t = O.create inst in
      let got = Tdmd.Cover_fixup.within t ~chosen ~budget in
      got = Reference.within inst ~chosen ~budget
      && Tdmd.Placement.to_list (O.placement t)
         = Tdmd.Placement.to_list (Tdmd.Placement.of_list got))

(* The budget caps the answer even when [chosen] names more distinct
   vertices than it allows: one flow on the path 0-1-2-3 keeps the
   prefix [0; 1] at budget 2, and two disjoint one-edge flows at
   budget 1 fall back to the one-vertex prefix. *)
let test_cover_fixup_budget_cap () =
  let g = Tdmd_graph.Digraph.create 4 in
  List.iter (fun (a, b) -> Tdmd_graph.Digraph.add_edge g a b) [ (0, 1); (1, 2); (2, 3) ];
  let one = Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1; 2; 3 ] in
  let inst = Tdmd.Instance.make ~graph:g ~flows:[ one ] ~lambda:0.5 in
  Alcotest.(check (list int)) "path: longest prefix within the budget" [ 0; 1 ]
    (Tdmd.Cover_fixup.within (O.create inst) ~chosen:[ 0; 1; 2 ] ~budget:2);
  let g = Tdmd_graph.Digraph.create 4 in
  List.iter (fun (a, b) -> Tdmd_graph.Digraph.add_edge g a b) [ (0, 1); (2, 3) ];
  let flows =
    [
      Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1 ];
      Tdmd_flow.Flow.make ~id:1 ~rate:1 ~path:[ 2; 3 ];
    ]
  in
  let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda:0.5 in
  let got = Tdmd.Cover_fixup.within (O.create inst) ~chosen:[ 0; 2; 1 ] ~budget:1 in
  Alcotest.(check (list int)) "disjoint flows: infeasible fallback" [ 0 ] got

(* (f) The mask-based objective scans against the membership-list
   references: same serving decisions, and the same float bits for any
   λ, because the summation order over the flow array is unchanged.
   Placements may name vertices outside the graph. *)
let prop_scans_differential =
  QCheck.Test.make ~name:"objective scans: placement mask = list membership"
    ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:9
          ~lambda:(Rng.float rng 1.0)
      in
      let p =
        Tdmd.Placement.of_list
          (List.init (Rng.int rng (n + 2)) (fun _ -> Rng.int rng (n + 1)))
      in
      let ids fs = List.map (fun f -> f.Tdmd_flow.Flow.id) fs in
      Int64.bits_of_float (Tdmd.Bandwidth.total inst p)
      = Int64.bits_of_float (Reference.total inst p)
      && Tdmd.Bandwidth.diminished_volume inst p = Reference.diminished_volume inst p
      && Tdmd.Allocation.is_feasible inst p = Reference.is_feasible inst p
      && ids (Tdmd.Allocation.unserved inst p) = ids (Reference.unserved inst p)
      && Tdmd.Allocation.all inst p = Reference.all inst p)

(* (g) The read-only local search against the probe-and-undo reference:
   identical placement, bandwidth bits and work counters.  Starts are
   GTP's answer or one random on-path box per flow; the latter often
   leaves a flow served by a single box, so removing it strands the
   flow and only candidates on its path stay feasible. *)
let same_refine ?max_rounds ~k inst p =
  let a = Reference.refine ?max_rounds ~k inst p in
  let b = Tdmd.Local_search.refine ?max_rounds ~k inst p in
  let same_count name = Fixtures.count a name = Fixtures.count b name in
  Tdmd.Placement.to_list a.Tdmd.Solver_intf.placement
  = Tdmd.Placement.to_list b.Tdmd.Solver_intf.placement
  && Int64.bits_of_float a.Tdmd.Solver_intf.bandwidth
     = Int64.bits_of_float b.Tdmd.Solver_intf.bandwidth
  && same_count "swaps"
  && same_count "evaluations"
  && same_count "delta_evals"

let prop_refine_differential =
  QCheck.Test.make ~name:"Local_search.refine: read-only probes = add/undo reference"
    ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let lambda = if Rng.bool rng then dyadic_lambda rng else Rng.float rng 1.0 in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6 ~lambda
      in
      let on_path =
        Array.to_list inst.Tdmd.Instance.flows
        |> List.map (fun f ->
               let path = f.Tdmd_flow.Flow.path in
               path.(Rng.int rng (Array.length path)))
        |> Tdmd.Placement.of_list
      in
      let k = Tdmd.Placement.size on_path + Rng.int rng 3 in
      let max_rounds = if Rng.int rng 4 = 0 then Some (1 + Rng.int rng 3) else None in
      let g = Tdmd.Gtp.run ~budget:(1 + Rng.int rng n) inst in
      same_refine ?max_rounds ~k inst on_path
      && ((not g.Tdmd.Solver_intf.feasible)
         || same_refine ?max_rounds ~k:(Tdmd.Placement.size g.Tdmd.Solver_intf.placement)
              inst g.Tdmd.Solver_intf.placement))

(* A swap whose outgoing box is the only one serving a flow: on the path
   0-1-2-3 the lone box at 2 moves to the source, the one candidate
   that serves the flow again at the smallest offset. *)
let test_refine_stranding_swap () =
  let g = Tdmd_graph.Digraph.create 4 in
  List.iter (fun (a, b) -> Tdmd_graph.Digraph.add_edge g a b) [ (0, 1); (1, 2); (2, 3) ];
  let f = Tdmd_flow.Flow.make ~id:0 ~rate:2 ~path:[ 0; 1; 2; 3 ] in
  let inst = Tdmd.Instance.make ~graph:g ~flows:[ f ] ~lambda:0.5 in
  let start = Tdmd.Placement.of_list [ 2 ] in
  let r = Tdmd.Local_search.refine ~k:1 inst start in
  Alcotest.(check (list int)) "box moved to the source" [ 0 ]
    (Tdmd.Placement.to_list r.Tdmd.Solver_intf.placement);
  Alcotest.(check int) "one swap" 1 (Fixtures.count r "swaps");
  Alcotest.(check bool) "matches the add/undo reference" true
    (same_refine ~k:1 inst start)

(* One instance solved by gtp, celf and gtp-ls from two domains at once
   must give exactly the sequential answers: the incidence the oracles
   share is never written. *)
let test_concurrent_solves () =
  let rng = Rng.create 2024 in
  let inst =
    Fixtures.random_general_instance rng ~n:40 ~flows:120 ~max_rate:7 ~lambda:0.3
  in
  let jobs =
    List.concat_map
      (fun name -> List.map (fun k -> (name, k)) [ 4; 8; 12; 16 ])
      [ "gtp"; "celf"; "gtp-ls" ]
  in
  let answer (name, k) =
    let solve = Option.get (Tdmd.Solvers.find_general name) in
    let o = solve ~rng:(Rng.create 1) ~k inst in
    ( Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement,
      Int64.bits_of_float o.Tdmd.Solver_intf.bandwidth,
      o.Tdmd.Solver_intf.feasible )
  in
  let sequential = List.map answer jobs in
  let results = Atomic.make [] in
  let pool = Parallel.Pool.create ~domains:2 ~capacity:8 () in
  for lane = 0 to 1 do
    let accepted =
      Parallel.Pool.submit pool (fun () ->
          let mine = List.map answer jobs in
          let rec publish () =
            let seen = Atomic.get results in
            if not (Atomic.compare_and_set results seen ((lane, mine) :: seen)) then
              publish ()
          in
          publish ())
    in
    Alcotest.(check bool) "job accepted" true accepted
  done;
  Parallel.Pool.shutdown pool;
  let got = Atomic.get results in
  Alcotest.(check int) "both lanes finished" 2 (List.length got);
  List.iter
    (fun (lane, mine) ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d = sequential answers" lane)
        true (mine = sequential))
    got

(* Spot-check the telemetry plumbing: the incremental GTP run records
   the new oracle counters. *)
let test_oracle_counters () =
  let rng = Rng.create 99 in
  let inst =
    Fixtures.random_general_instance rng ~n:10 ~flows:10 ~max_rate:5 ~lambda:0.5
  in
  let r = Tdmd.Gtp.run ~budget:4 inst in
  let tel = r.Tdmd.Solver_intf.telemetry in
  Alcotest.(check bool) "delta_evals recorded" true
    (Tdmd_obs.Telemetry.get_count tel "delta_evals" > 0);
  Alcotest.(check bool) "oracle_ns recorded" true
    (Tdmd_obs.Telemetry.find tel "oracle_ns" <> None)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ops_differential;
    QCheck_alcotest.to_alcotest prop_flow_edits_differential;
    QCheck_alcotest.to_alcotest prop_ledger_differential;
    QCheck_alcotest.to_alcotest prop_greedy_differential;
    QCheck_alcotest.to_alcotest prop_gtp_run_differential;
    QCheck_alcotest.to_alcotest prop_hat_differential;
    QCheck_alcotest.to_alcotest prop_cover_fixup_differential;
    Alcotest.test_case "cover fix-up: answers stay within the budget" `Quick
      test_cover_fixup_budget_cap;
    QCheck_alcotest.to_alcotest prop_scans_differential;
    QCheck_alcotest.to_alcotest prop_refine_differential;
    Alcotest.test_case "local search: stranding swap" `Quick
      test_refine_stranding_swap;
    Alcotest.test_case "shared incidence: concurrent solves = sequential" `Quick
      test_concurrent_solves;
    Alcotest.test_case "telemetry: oracle counters recorded" `Quick
      test_oracle_counters;
  ]
