(* Differential tests: the incremental decrement oracle must agree with
   the from-scratch naive path exactly — same diminished volumes, same
   marginals, same greedy/CELF/HAT selections, same bandwidth bits.
   Exactness is by construction (all bookkeeping in integer
   diminished-volume units, b rendered from them by one function), so
   these properties demand it at any λ over randomized instances. *)

open Tdmd_prelude
module O = Tdmd.Inc_oracle

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
          ~lambda:(Rng.float rng 1.0)
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
          ~lambda:(Rng.float rng 1.0)
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
              | Reference.Served_at { vertex; _ } -> vertex = v
              | Reference.Unserved -> false)
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
   unserved counts.  Straight after the constructor, and straight after
   a reset in the tail, a query reads both halves, so a static oracle's
   copy of its instance's empty ledger is checked whole.  The tail also
   undoes straight after a query, then resets, edits and queries again.
   Both constructors; zero-hop flows ride along. *)
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
          ~lambda:(Rng.float rng 1.0)
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
      (* A query reads the gains (0), the unserved counts (1) or both
         (2), so each half of the ledger is built and kept at its own
         times. *)
      let query_halves halves =
        let r = Tdmd.Instance.make ~graph ~flows:(List.map fst !live) ~lambda in
        let p = current () in
        let volume = Reference.diminished_volume r p in
        let unserved = List.length (Reference.unserved r p) in
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
      let query () = query_halves (Rng.int rng 3) in
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
      query_halves 2;
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
      query_halves 2;
      reset ();
      add (Rng.int rng n);
      remove (Rng.int rng n);
      add (Rng.int rng n);
      query ();
      !ok)

(* (b) GTP's greedy and CELF loops on the oracle's ledger must make the
   same selections with the same gains as the value-only references over
   the naive full-rescan oracle — exact float equality, no tolerance. *)
let prop_greedy_differential =
  QCheck.Test.make ~name:"greedy & CELF: incremental oracle = naive oracle"
    ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_range 4 20))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(Rng.float rng 1.0)
      in
      let k = 1 + Rng.int rng n in
      let same naive fast =
        let a = naive ~k (Reference.oracle_naive inst) in
        let b = fast ~k inst in
        a.Reference.chosen = b.Tdmd.Gtp.chosen
        && a.Reference.gains = List.map float_of_int b.Tdmd.Gtp.gains
        && Tdmd.Bandwidth.total inst (Tdmd.Placement.of_list a.Reference.chosen)
           = Tdmd.Bandwidth.total inst (Tdmd.Placement.of_list b.Tdmd.Gtp.chosen)
      in
      same (fun ~k o -> Reference.greedy ~k o) Tdmd.Gtp.greedy
      && same (fun ~k o -> Reference.lazy_greedy ~k o) Tdmd.Gtp.celf)

(* A run's span tree, as the registry golden renders it. *)
let rec span_shape (s : Tdmd_obs.Telemetry.span) =
  match s.Tdmd_obs.Telemetry.children with
  | [] -> s.Tdmd_obs.Telemetry.label
  | cs ->
    Printf.sprintf "%s(%s)" s.Tdmd_obs.Telemetry.label
      (String.concat "," (List.map span_shape cs))

(* (c) End-to-end GTP / CELF against the from-scratch reference (naive
   oracle, naive cover fix-up): identical placement, bandwidth,
   feasibility, marginals read ("oracle_calls" and "delta_evals") and
   span tree.  Each case runs one budget below [Fixtures.derived_k], where
   the greedy leaves flows unserved and the fix-up repairs, and one at
   or above it, where the greedy serves every flow and the fix-up is
   skipped (no flow has zero hops, so every unserved flow has a
   positive marginal at its source). *)
let prop_gtp_run_differential =
  QCheck.Test.make ~name:"Gtp.run/run_celf: incremental = naive" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 4 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:5
          ~lambda:(Rng.float rng 1.0)
      in
      let derived = Fixtures.derived_k inst in
      let below = Rng.int rng derived in
      let above = derived + Rng.int rng (n - derived + 1) in
      let greedy_serves budget = O.is_feasible (Tdmd.Gtp.greedy ~k:budget inst).Tdmd.Gtp.oracle in
      let same label select run budget =
        let a, reads = Reference.gtp select ~budget inst in
        let b = run ~budget inst in
        Tdmd.Placement.to_list a = Tdmd.Placement.to_list b.Tdmd.Solver_intf.placement
        && Tdmd.Bandwidth.total inst a = b.Tdmd.Solver_intf.bandwidth
        && Tdmd.Allocation.is_feasible inst a = b.Tdmd.Solver_intf.feasible
        && Fixtures.count b "oracle_calls" = reads
        && Fixtures.count b "delta_evals" = reads
        && List.map span_shape (Tdmd_obs.Telemetry.spans b.Tdmd.Solver_intf.telemetry)
           = [ label ^ "(greedy,cover-fixup)" ]
      in
      (not (greedy_serves below))
      && greedy_serves above
      && List.for_all
           (fun budget ->
             same "gtp"
               (fun ~stop ~k o -> Reference.greedy ~stop ~k o)
               (fun ~budget i -> Tdmd.Gtp.run ~budget i)
               budget
             && same "gtp-celf"
                  (fun ~stop ~k o -> Reference.lazy_greedy ~stop ~k o)
                  (fun ~budget i -> Tdmd.Gtp.run_celf ~budget i)
                  budget)
           [ below; above ])

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
   and name up to twice the budget.  A second draw on the same oracle
   takes a budget below the disjoint-path packing's size and a
   non-empty [chosen], so the first candidate fails and [within] takes
   its early exit; the reference still runs every retry. *)
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
      let picks len = List.init len (fun _ -> Rng.int rng n) in
      let t = O.create inst in
      let same ~chosen ~budget =
        let got = Tdmd.Cover_fixup.within t ~chosen ~budget in
        got = Reference.within inst ~chosen ~budget
        && Tdmd.Placement.to_list (O.placement t)
           = Tdmd.Placement.to_list (Tdmd.Placement.of_list got)
      in
      let budget = 1 + Rng.int rng n in
      same ~chosen:(picks (Rng.int rng ((2 * budget) + 1))) ~budget
      &&
      let packed = O.disjoint_paths t ~at_most:n in
      packed < 2
      ||
      let budget = 1 + Rng.int rng (packed - 1) in
      same ~chosen:(picks (1 + Rng.int rng (2 * budget))) ~budget)

(* (e') The packing behind that early exit: whenever it holds more than
   b pairwise vertex-disjoint flow paths, no deployment of at most b
   vertices serves every flow, so [Tdmd.Brute] finds none; and it stops
   at [at_most], so asking for b + 1 reads min (b + 1) of the full
   packing (over an instance, off the size the first call stored).  b
   is drawn up to the full packing's size, so most draws fall below
   it.  Zero-hop flows ride along.  Half the cases use an [empty]
   oracle whose flows arrived in random order, some departed again
   (vacated slots) and some of those came back (reused slots). *)
let prop_disjoint_paths_certificate =
  QCheck.Test.make
    ~name:"disjoint-path packing above b: no b-vertex deployment is feasible"
    ~count:150
    QCheck.(triple (int_bound 1_000_000) (int_range 4 10) bool)
    (fun (seed, n, owned) ->
      let n = max 4 n in
      let rng = Rng.create seed in
      let base =
        Fixtures.random_general_instance rng ~n ~flows:(1 + Rng.int rng (2 * n))
          ~max_rate:4 ~lambda:0.5
      in
      let graph = base.Tdmd.Instance.graph in
      let singles =
        List.init (Rng.int rng 3) (fun i ->
            Tdmd_flow.Flow.make ~id:(1000 + i) ~rate:1 ~path:[ Rng.int rng n ])
      in
      let flows = Tdmd.Instance.flows base @ singles in
      let t, live =
        if not owned then (O.create (Tdmd.Instance.make ~graph ~flows ~lambda:0.5), flows)
        else begin
          let t = O.empty ~vertices:n ~lambda:0.5 in
          let order = Array.of_list flows in
          Rng.shuffle rng order;
          let arrived = List.map (fun f -> (f, O.add_flow t f)) (Array.to_list order) in
          let stay, gone = List.partition (fun _ -> Rng.int rng 3 > 0) arrived in
          List.iter (fun (_, slot) -> O.remove_flow t slot) gone;
          let back = List.filter (fun _ -> Rng.bool rng) gone in
          List.iter (fun (f, _) -> ignore (O.add_flow t f)) back;
          (t, List.map fst stay @ List.map fst back)
        end
      in
      let full = O.disjoint_paths t ~at_most:max_int in
      let b = Rng.int rng (full + 1) in
      let packed = O.disjoint_paths t ~at_most:(b + 1) in
      let inst = Tdmd.Instance.make ~graph ~flows:live ~lambda:0.5 in
      packed = min (b + 1) full
      && (packed <= b || not (Tdmd.Brute.solve ~k:b inst).Tdmd.Solver_intf.feasible))

(* Every vertex's two ledger entries, read through the queries. *)
let ledger n t = List.init n (fun v -> (O.marginal_volume t v, O.newly_served t v))

(* (e'') The fix-up edits the deployment its oracle holds on entry.
   From any entry deployment — empty, exactly the longest prefix of
   [chosen] (its first [budget] distinct vertices), a strict subset or a
   strict superset of that, or an unrelated set — it must return what
   the reset-and-rebuild reference returns, and leave the oracle
   answering like [of_list] of the result: the same deployment, volume,
   unserved count and ledger at every vertex.  Both ledger halves are
   read before each call, so the fix-up's edits must keep them current.
   Static oracles, and [empty] oracles whose flows arrived in random
   order around a deployment, partly departed and partly came back
   (vacated and reused slots).  [chosen] repeats vertices and names up
   to twice the budget; budgets fall below, at and above the size of the
   disjoint-path packing, so the early exit, the retries and the
   fallback to the first candidate all run.  Three calls per case on
   one oracle, each entering from the deployment the last one left,
   reshaped. *)
let prop_cover_fixup_entry =
  QCheck.Test.make
    ~name:"Cover_fixup.within from any entry deployment = reset-and-rebuild reference"
    ~count:150
    QCheck.(triple (int_bound 1_000_000) (int_range 4 12) bool)
    (fun (seed, n, owned) ->
      let n = max 4 n in
      let rng = Rng.create seed in
      let base =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:5
          ~lambda:(Rng.float rng 1.0)
      in
      let graph = base.Tdmd.Instance.graph and lambda = base.Tdmd.Instance.lambda in
      let flows = Tdmd.Instance.flows base in
      let t, live =
        if not owned then (O.create base, flows)
        else begin
          let t = O.empty ~vertices:n ~lambda in
          let order = Array.of_list flows in
          Rng.shuffle rng order;
          let arrived =
            List.mapi
              (fun i f ->
                if i = Array.length order / 2 then O.add t (Rng.int rng n);
                (f, O.add_flow t f))
              (Array.to_list order)
          in
          let stay, gone = List.partition (fun _ -> Rng.int rng 3 > 0) arrived in
          List.iter (fun (_, slot) -> O.remove_flow t slot) gone;
          let back = List.filter (fun _ -> Rng.bool rng) gone in
          List.iter (fun (f, _) -> ignore (O.add_flow t f)) back;
          (t, List.map fst stay @ List.map fst back)
        end
      in
      let inst = Tdmd.Instance.make ~graph ~flows:live ~lambda in
      let packed = O.disjoint_paths t ~at_most:max_int in
      let rec firsts acc budget = function
        | v :: rest when List.mem v acc -> firsts acc budget rest
        | v :: rest when List.length acc < budget -> firsts (v :: acc) budget rest
        | _ -> List.rev acc
      in
      let others vs = List.filter (fun v -> not (List.mem v vs)) (List.init n Fun.id) in
      let entry prefix =
        match Rng.int rng 5 with
        | 0 -> []
        | 1 -> prefix
        | 2 -> (
          match prefix with
          | [] -> []
          | _ ->
            let drop = List.nth prefix (Rng.int rng (List.length prefix)) in
            List.filter (fun v -> v <> drop && Rng.bool rng) prefix)
        | 3 -> (
          match others prefix with
          | [] -> prefix
          | rest -> prefix @ List.filter (fun v -> v = List.hd rest || Rng.bool rng) rest)
        | _ -> List.init (Rng.int rng n) (fun _ -> Rng.int rng n)
      in
      let redeploy vs =
        List.iter
          (fun v -> if not (List.mem v vs) then O.remove t v)
          (Tdmd.Placement.to_list (O.placement t));
        List.iter (O.add t) vs
      in
      let call () =
        let budget =
          match Rng.int rng 3 with
          | 0 -> if packed = 0 then 0 else Rng.int rng packed
          | 1 -> packed
          | _ -> packed + 1 + Rng.int rng n
        in
        let chosen = List.init (Rng.int rng ((2 * budget) + 1)) (fun _ -> Rng.int rng n) in
        redeploy (entry (firsts [] budget chosen));
        ignore (ledger n t);
        let got = Tdmd.Cover_fixup.within t ~chosen ~budget in
        let r = O.of_list inst got in
        got = Reference.within inst ~chosen ~budget
        && Tdmd.Placement.to_list (O.placement t) = Tdmd.Placement.to_list (O.placement r)
        && O.diminished_volume t = O.diminished_volume r
        && O.unserved_count t = O.unserved_count r
        && ledger n t = ledger n r
      in
      call () && call () && call ())

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

(* The covering picks are the set-cover greedy, so the fix-up can miss a
   feasible deployment within the budget.  Vertices 0-4, arcs 0->2,
   0->3, 1->2 and 1->4, rate-1 flows 0->2 (twice), 0->3, 1->2 (twice)
   and 1->4.  From an empty start at budget 2 the greedy covers at 2
   (four flows), then at 0 (lowest of four one-flow ties), and 1->4
   stays unserved; so does the portfolio's deadline-0 fallback, which
   is this fix-up.  Brute and GTP at k 2 both deploy [0; 1], which
   serves every flow. *)
let test_cover_fixup_greedy_limit () =
  let g = Tdmd_graph.Digraph.create 5 in
  List.iter (fun (a, b) -> Tdmd_graph.Digraph.add_edge g a b) [ (0, 2); (0, 3); (1, 2); (1, 4) ];
  let flows =
    List.mapi
      (fun id path -> Tdmd_flow.Flow.make ~id ~rate:1 ~path)
      [ [ 0; 2 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 2 ]; [ 1; 4 ] ]
  in
  let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda:0.5 in
  let t = O.create inst in
  Alcotest.(check (list int)) "greedy cover" [ 2; 0 ]
    (Tdmd.Cover_fixup.within t ~chosen:[] ~budget:2);
  Alcotest.(check int) "1->4 left unserved" 1 (O.unserved_count t);
  Alcotest.(check (list int)) "portfolio fallback" [ 2; 0 ]
    (Tdmd_portfolio.Search.greedy_cover inst ~k:2);
  List.iter
    (fun (name, o) ->
      Alcotest.(check (list int)) name [ 0; 1 ]
        (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement);
      Alcotest.(check bool) (name ^ " serves every flow") true o.Tdmd.Solver_intf.feasible)
    [ ("brute", Tdmd.Brute.solve ~k:2 inst); ("gtp", Tdmd.Gtp.run ~budget:2 inst) ]

(* (f) The mask-based objective scans against the membership-list
   references: same feasibility and volumes, so the same rendered bits
   at any λ.  Placements may name vertices outside the graph. *)
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
      Int64.bits_of_float (Tdmd.Bandwidth.total inst p)
      = Int64.bits_of_float (Reference.total inst p)
      && Tdmd.Bandwidth.diminished_volume inst p = Reference.diminished_volume inst p
      && Tdmd.Allocation.is_feasible inst p = Reference.is_feasible inst p)

(* (g) The read-only local search against the probe-and-undo reference:
   identical placement, bandwidth bits and work counters.  Starts are
   GTP's answer or one random on-path box per flow; the latter often
   leaves a flow served by a single box, so removing it strands the
   flow and only candidates on its path stay feasible. *)
let same_refine ?max_rounds ~k inst p =
  let a = Reference.refine ?max_rounds ~k inst p in
  let b =
    Tdmd.Local_search.refine ?max_rounds ~k inst (O.of_list inst (Tdmd.Placement.to_list p))
  in
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
      let lambda = if Rng.int rng 4 = 0 then 1.0 else Rng.float rng 1.0 in
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

(* (g') The registry's gtp-ls, which refines the oracle GTP ends on,
   against the probe-and-undo reference refining [Gtp.run]'s placement
   in an oracle rebuilt by [Inc_oracle.of_list]: same placement, D,
   bandwidth bits, feasibility and work counters (GTP's and the
   refinement's, summed as the registry merges them).  λ is 0, 0.5, 1
   or drawn; the budget falls below [Fixtures.derived_k], where GTP's fix-up
   repairs and may leave the deployment infeasible (gtp-ls then answers
   GTP's outcome), or at or above it, where the fix-up is skipped. *)
let prop_gtp_ls_registry =
  QCheck.Test.make ~name:"registry gtp-ls = GTP then the add/undo reference refine"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let lambda =
        match Rng.int rng 4 with 0 -> 0.0 | 1 -> 0.5 | 2 -> 1.0 | _ -> Rng.float rng 1.0
      in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6 ~lambda
      in
      let derived = Fixtures.derived_k inst in
      let k = if Rng.bool rng then Rng.int rng derived else derived + Rng.int rng 3 in
      let gtp_ls = Option.get (Tdmd.Solvers.find_general "gtp-ls") in
      let got = gtp_ls ~rng:(Rng.create seed) ~k inst in
      let g = Tdmd.Gtp.run ~budget:k inst in
      let want =
        if g.Tdmd.Solver_intf.feasible then Reference.refine ~k inst g.Tdmd.Solver_intf.placement
        else g
      in
      let counted name =
        Fixtures.count got name
        = Fixtures.count g name
          + if g.Tdmd.Solver_intf.feasible then Fixtures.count want name else 0
      in
      Tdmd.Placement.to_list got.Tdmd.Solver_intf.placement
      = Tdmd.Placement.to_list want.Tdmd.Solver_intf.placement
      && got.Tdmd.Solver_intf.volume = want.Tdmd.Solver_intf.volume
      && Int64.bits_of_float got.Tdmd.Solver_intf.bandwidth
         = Int64.bits_of_float want.Tdmd.Solver_intf.bandwidth
      && got.Tdmd.Solver_intf.feasible = want.Tdmd.Solver_intf.feasible
      && List.for_all counted [ "delta_evals"; "oracle_calls"; "swaps"; "evaluations" ])

(* A swap whose outgoing box is the only one serving a flow: on the path
   0-1-2-3 the lone box at 2 moves to the source, the one candidate
   that serves the flow again at the smallest offset. *)
let test_refine_stranding_swap () =
  let g = Tdmd_graph.Digraph.create 4 in
  List.iter (fun (a, b) -> Tdmd_graph.Digraph.add_edge g a b) [ (0, 1); (1, 2); (2, 3) ];
  let f = Tdmd_flow.Flow.make ~id:0 ~rate:2 ~path:[ 0; 1; 2; 3 ] in
  let inst = Tdmd.Instance.make ~graph:g ~flows:[ f ] ~lambda:0.5 in
  let start = Tdmd.Placement.of_list [ 2 ] in
  let r = Tdmd.Local_search.refine ~k:1 inst (O.of_list inst [ 2 ]) in
  Alcotest.(check (list int)) "box moved to the source" [ 0 ]
    (Tdmd.Placement.to_list r.Tdmd.Solver_intf.placement);
  Alcotest.(check int) "one swap" 1 (Fixtures.count r "swaps");
  Alcotest.(check bool) "matches the add/undo reference" true
    (same_refine ~k:1 inst start)

(* The swap queries' instances, 17-48 vertices on four shapes.  A star
   (alone or over a ring) routes most flows through its hub, so the box
   there touches most vertices, the best undeployed one among them; a
   ring with chords gives long paths, so removing a box strands flows;
   the dense random graph gives short ones.  Some flows have zero
   hops. *)
let swap_instance rng =
  let n = Rng.int_in rng 17 48 in
  let g = Tdmd_graph.Digraph.create n in
  let ring () =
    for v = 0 to n - 1 do
      Tdmd_graph.Digraph.add_undirected g v ((v + 1) mod n)
    done
  in
  let g =
    match Rng.int rng 4 with
    | 0 | 1 as shape ->
      let hub = Rng.int rng n in
      if shape = 1 then ring ();
      for v = 0 to n - 1 do
        if v <> hub then Tdmd_graph.Digraph.add_undirected g hub v
      done;
      g
    | 2 ->
      ring ();
      for _ = 1 to n / 6 do
        let a = Rng.int rng n and b = Rng.int rng n in
        if a <> b then Tdmd_graph.Digraph.add_undirected g a b
      done;
      g
    | _ -> Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.25
  in
  let rec flows id acc =
    if id = 2 * n then acc
    else
      let src = Rng.int rng n and dst = Rng.int rng n in
      let path =
        if src = dst then Some [ src ] else Tdmd_graph.Bfs.shortest_path g ~src ~dst
      in
      match path with
      | None -> flows id acc
      | Some path ->
        flows (id + 1) (Tdmd_flow.Flow.make ~id ~rate:(Rng.int_in rng 1 6) ~path :: acc)
  in
  (* At λ = 1 no move is taken; at 1 − λ = 2⁻⁴⁵ neighbouring volumes
     read the same float bandwidth, and moves still are. *)
  let lambda =
    match Rng.int rng 6 with
    | 0 -> 0.0
    | 1 -> 0.5
    | 2 -> 0.75
    | 3 -> Rng.float rng 1.0
    | 4 -> 1.0 -. ldexp 1.0 (-45)
    | _ -> 1.0
  in
  (g, List.rev (flows 0 []), lambda)

(* The vertex on the most flow paths: a box there first serves most
   flows, so its pricing touches most vertices. *)
let busiest n flows =
  let through = Array.make n 0 in
  List.iter
    (fun f -> Array.iter (fun v -> through.(v) <- through.(v) + 1) f.Tdmd_flow.Flow.path)
    flows;
  let best = ref 0 in
  Array.iteri (fun v c -> if c > through.(!best) then best := v) through;
  !best

(* [scan_moves] against the edit-based scan in [Reference], call by
   call: a twin oracle takes the same edits, every deployed box and −1
   is scanned on both from the same drawn [move] and [current], and the
   oracle under test is never edited between the scans of one
   deployment, so its cached best undeployed vertex is reused across
   them.  Deployments serve every flow (a random on-path box per flow,
   or the busiest vertex and every flow's last vertex, so that the
   busiest box strands nothing) or are arbitrary, each plus random
   extras; each round ends with an edit, a reset among them.  The
   deployment, volume and ledger must read the same after the scans,
   and the undo journal must still revert the last edit. *)
let prop_scan_moves_differential =
  QCheck.Test.make ~name:"scan_moves = remove/score/undo reference, per call"
    ~count:120 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let graph, flows, lambda = swap_instance rng in
      let inst = Tdmd.Instance.make ~graph ~flows ~lambda in
      let n = Tdmd.Instance.vertex_count inst in
      let t = O.create inst and r = O.create inst in
      let add v =
        O.add t v;
        O.add r v
      in
      let on_path pick =
        List.iter (fun f -> add (pick f.Tdmd_flow.Flow.path)) flows
      in
      (match Rng.int rng 3 with
      | 0 -> on_path (fun path -> path.(Rng.int rng (Array.length path)))
      | 1 ->
        add (busiest n flows);
        on_path (fun path -> path.(Array.length path - 1))
      | _ -> if Rng.bool rng then add (busiest n flows));
      for _ = 1 to Rng.int rng (n / 2) do
        add (Rng.int rng n)
      done;
      let draw_move () =
        let m = O.no_move () in
        if Rng.bool rng then begin
          m.O.incoming <- Rng.int rng n;
          m.O.outgoing <- Rng.int rng n;
          m.O.after <- O.diminished_volume t + Rng.int rng 40
        end;
        m.O.probes <- Rng.int rng 100;
        m.O.evaluations <- Rng.int rng 100;
        m
      in
      let same (a : O.move) (b : O.move) =
        a.O.outgoing = b.O.outgoing
        && a.O.incoming = b.O.incoming
        && a.O.after = b.O.after
        && a.O.probes = b.O.probes
        && a.O.evaluations = b.O.evaluations
      in
      let ok = ref true in
      let scans () =
        let before = (O.placement t, O.diminished_volume t, O.unserved_count t, ledger n t) in
        let current =
          match Rng.int rng 3 with
          | 0 -> O.diminished_volume t
          | 1 -> O.diminished_volume t + Rng.int rng 20
          | _ -> O.diminished_volume t - Rng.int rng 20
        in
        List.iter
          (fun outgoing ->
            let m = draw_move () in
            let m' = { m with O.probes = m.O.probes } in
            O.scan_moves t ~outgoing ~current m;
            Reference.scan_moves inst r ~outgoing ~current m';
            ok := !ok && same m m')
          (-1 :: Tdmd.Placement.to_list (O.placement t));
        ok :=
          !ok
          && before = (O.placement t, O.diminished_volume t, O.unserved_count t, ledger n t)
      in
      for _ = 1 to 4 do
        scans ();
        let v = Rng.int rng n in
        match Rng.int rng 6 with
        | 0 ->
          O.reset t;
          O.reset r
        | 1 | 2 ->
          O.remove t v;
          O.remove r v
        | _ -> add v
      done;
      scans ();
      (* The scans leave the undo journal alone: the last edit still
         undoes. *)
      add (Rng.int rng n);
      scans ();
      O.undo t;
      O.undo r;
      !ok
      && Tdmd.Placement.to_list (O.placement t) = Tdmd.Placement.to_list (O.placement r)
      && ledger n t = ledger n r)

(* [best_replacement] against the rebalancer's remove / argmax / undo in
   [Reference], for every placed box, on twin churn oracles: flows
   arrive and depart (vacated slots are reused, zero-hop flows ride
   along) between deployment edits that may leave flows unserved.  Half
   the cases deploy the busiest vertex first and half edit the
   deployment rarely, so that boxes serve many flows. *)
let prop_best_replacement_differential =
  QCheck.Test.make ~name:"best_replacement = remove/argmax/undo reference, every box"
    ~count:120 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let graph, flows, lambda = swap_instance rng in
      let n = Tdmd_graph.Digraph.vertex_count graph in
      let pool = Array.of_list flows in
      let t = O.empty ~vertices:n ~lambda and r = O.empty ~vertices:n ~lambda in
      let live = ref [] in
      let ok = ref true in
      (* Half the cases edit the deployment rarely, so each box serves
         many flows. *)
      let steps = if Rng.bool rng then 6 else 12 in
      let step () =
        match Rng.int rng steps with
        | 2 -> (
          match !live with
          | [] -> ()
          | l ->
            let f, slot = List.nth l (Rng.int rng (List.length l)) in
            O.remove_flow t slot;
            O.remove_flow r slot;
            live := List.remove_assq f l)
        | 3 | 4 ->
          let v = Rng.int rng n in
          O.add t v;
          O.add r v
        | 5 ->
          let v = Rng.int rng n in
          O.remove t v;
          O.remove r v
        | _ ->
          let f = pool.(Rng.int rng (Array.length pool)) in
          if not (List.mem_assq f !live) then begin
            let slot = O.add_flow t f in
            ok := !ok && O.add_flow r f = slot;
            live := (f, slot) :: !live
          end
      in
      if Rng.bool rng then begin
        let v = busiest n flows in
        O.add t v;
        O.add r v
      end;
      for _ = 1 to 2 * n do
        step ()
      done;
      for _ = 1 to 6 do
        for _ = 1 to 1 + Rng.int rng 4 do
          step ()
        done;
        let before = (O.placement t, O.diminished_volume t, O.unserved_count t, ledger n t) in
        List.iter
          (fun u -> ok := !ok && O.best_replacement t u = Reference.best_replacement r u)
          (Tdmd.Placement.to_list (O.placement t));
        ok :=
          !ok
          && before = (O.placement t, O.diminished_volume t, O.unserved_count t, ledger n t)
      done;
      !ok)

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
    QCheck_alcotest.to_alcotest prop_disjoint_paths_certificate;
    QCheck_alcotest.to_alcotest prop_cover_fixup_entry;
    Alcotest.test_case "cover fix-up: answers stay within the budget" `Quick
      test_cover_fixup_budget_cap;
    Alcotest.test_case "cover fix-up: the greedy cover can miss a feasible deployment"
      `Quick test_cover_fixup_greedy_limit;
    QCheck_alcotest.to_alcotest prop_scans_differential;
    QCheck_alcotest.to_alcotest prop_refine_differential;
    QCheck_alcotest.to_alcotest prop_gtp_ls_registry;
    Alcotest.test_case "local search: stranding swap" `Quick
      test_refine_stranding_swap;
    QCheck_alcotest.to_alcotest prop_scan_moves_differential;
    QCheck_alcotest.to_alcotest prop_best_replacement_differential;
    Alcotest.test_case "shared incidence: concurrent solves = sequential" `Quick
      test_concurrent_solves;
    Alcotest.test_case "telemetry: oracle counters recorded" `Quick
      test_oracle_counters;
  ]
