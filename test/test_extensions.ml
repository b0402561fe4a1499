(* Extension modules: the binary-tree DP transcription (Eqs. 7-8, in
   test/reference.ml) against Dp, local search, incremental
   maintenance, plus the binary-lifting LCA and the temporal workload
   generator. *)

open Tdmd_prelude
module P = Tdmd.Placement
module Flow = Tdmd_flow.Flow
module Rt = Tdmd_tree.Rooted_tree

(* ------------------------------------------------------------------ *)
(* Eqs. 7-8 verbatim (Reference.dp_binary) vs Dp                       *)
(* ------------------------------------------------------------------ *)

let test_dp_binary_fig5 () =
  let inst = Fixtures.fig5_instance () in
  List.iter
    (fun k ->
      let a = Tdmd.Dp.solve ~k inst in
      let b = Reference.dp_binary ~k inst in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "values equal at k=%d" k)
        a.Tdmd.Solver_intf.bandwidth b.Tdmd.Solver_intf.bandwidth)
    [ 1; 2; 3; 4 ]

(* The two DPs agree on feasibility, D, the bandwidth's bits and the
   table cells they fill ("states"): the ablation's value gap 0 and
   state ratio 1.  The registry's [dp-binary] row answers as [Dp]. *)
let prop_dp_binary_matches_general =
  QCheck.Test.make ~name:"binary-tree DP (eqs 7-8) = general DP" ~count:400
    QCheck.(
      quad (int_bound 100000) (int_range 2 44) (int_range 0 8)
        (oneofl [ 0.0; 0.3; 0.5; 1.0 ]))
    (fun (seed, n, k, lambda) ->
      let inst =
        Fixtures.random_tree_instance ~binary:true (Rng.create seed) ~n ~max_rate:12 ~lambda
      in
      let a = Tdmd.Dp.solve ~k inst in
      let b = Reference.dp_binary ~k inst in
      let row = Option.get (Tdmd.Solvers.find_tree "dp-binary") in
      let r = row ~rng:(Rng.create seed) ~k inst in
      let bits (o : Tdmd.Solver_intf.outcome) =
        Int64.bits_of_float o.Tdmd.Solver_intf.bandwidth
      in
      a.Tdmd.Solver_intf.feasible = b.Tdmd.Solver_intf.feasible
      && a.Tdmd.Solver_intf.volume = b.Tdmd.Solver_intf.volume
      && bits a = bits b
      && Fixtures.count a "states" = Fixtures.count b "states"
      && P.to_list r.Tdmd.Solver_intf.placement = P.to_list a.Tdmd.Solver_intf.placement
      && bits r = bits a)

(* Both the registry row and the reference refuse a star with today's
   message. *)
let test_dp_binary_rejects_wide () =
  let tree = Tdmd_topo.Topo_tree.star 5 in
  let flows =
    [ Flow.make ~id:0 ~rate:1 ~path:(Rt.path_to_root tree 1) ]
  in
  let inst = Tdmd.Instance.Tree.make ~tree ~flows ~lambda:0.5 in
  let refusal = Invalid_argument "Dp_binary.solve: vertex has more than two children" in
  let row = Option.get (Tdmd.Solvers.find_tree "dp-binary") in
  Alcotest.check_raises "registry: more than two children" refusal (fun () ->
      ignore (row ~rng:(Rng.create 1) ~k:2 inst));
  Alcotest.check_raises "reference: more than two children" refusal (fun () ->
      ignore (Reference.dp_binary ~k:2 inst))

let prop_dp_binary_placement_consistent =
  QCheck.Test.make ~name:"binary DP traceback evaluates to its value" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 2 15))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let tree = Tdmd_topo.Topo_tree.random_binary rng n in
      let leaves = List.filter (fun v -> v <> Rt.root tree) (Rt.leaves tree) in
      let flows =
        List.mapi
          (fun id leaf ->
            Flow.make ~id ~rate:(Rng.int_in rng 1 4) ~path:(Rt.path_to_root tree leaf))
          leaves
      in
      let inst = Tdmd.Instance.Tree.make ~tree ~flows ~lambda:0.3 in
      let r = Reference.dp_binary ~k:3 inst in
      (not r.Tdmd.Solver_intf.feasible)
      || Float.equal
           (Tdmd.Bandwidth.total (Tdmd.Instance.Tree.to_general inst)
              r.Tdmd.Solver_intf.placement)
           r.Tdmd.Solver_intf.bandwidth)

(* ------------------------------------------------------------------ *)
(* Local search                                                        *)
(* ------------------------------------------------------------------ *)

(* [refine] starts from an oracle holding the placement. *)
let refine_from ~k inst p =
  Tdmd.Local_search.refine ~k inst (Tdmd.Inc_oracle.of_list inst (P.to_list p))

let test_local_search_improves_fig1 () =
  let inst = Fixtures.fig1_instance () in
  (* Start from the feasible-but-poor all-at-destination plan {v1,v2}. *)
  let start = P.of_list [ 0; 1 ] in
  let r = refine_from ~k:2 inst start in
  Alcotest.(check bool) "improved" true (r.Tdmd.Solver_intf.bandwidth < 16.0);
  Alcotest.(check (float 1e-9)) "reaches the k=2 optimum" 12.0
    r.Tdmd.Solver_intf.bandwidth;
  Alcotest.(check bool) "still feasible" true
    (Tdmd.Feasibility.check inst r.Tdmd.Solver_intf.placement)

let test_local_search_rejects_infeasible () =
  let inst = Fixtures.fig1_instance () in
  Alcotest.check_raises "infeasible start"
    (Invalid_argument "Local_search.refine: infeasible starting deployment")
    (fun () -> ignore (refine_from ~k:1 inst (P.of_list [ 3 ])))

let prop_local_search_never_worse =
  QCheck.Test.make ~name:"local search never worsens and stays feasible"
    ~count:40
    QCheck.(triple (int_bound 100000) (int_range 3 12) (int_range 1 4))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:5 ~lambda:0.5
      in
      let gtp, oracle = Tdmd.Gtp.run_oracle ~budget:k inst in
      (not gtp.Tdmd.Solver_intf.feasible)
      || begin
           let r = Tdmd.Local_search.refine ~k inst oracle in
           r.Tdmd.Solver_intf.bandwidth <= gtp.Tdmd.Solver_intf.bandwidth +. 1e-9
           && Tdmd.Feasibility.check inst r.Tdmd.Solver_intf.placement
           && P.size r.Tdmd.Solver_intf.placement <= k
         end)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

let chain_graph n =
  let g = Tdmd_graph.Digraph.create n in
  for v = 1 to n - 1 do
    Tdmd_graph.Digraph.add_undirected g v (v - 1)
  done;
  g

let test_incremental_basic () =
  let g = chain_graph 5 in
  let t = Tdmd.Incremental.create ~graph:g ~lambda:0.5 ~k:2 () in
  Alcotest.(check bool) "empty is feasible" true (Tdmd.Incremental.feasible t);
  Tdmd.Incremental.arrive t (Flow.make ~id:0 ~rate:4 ~path:[ 4; 3; 2; 1; 0 ]);
  Alcotest.(check bool) "served after arrival" true (Tdmd.Incremental.feasible t);
  Alcotest.(check int) "one box" 1 (P.size (Tdmd.Incremental.placement t));
  (* Best serving vertex for a single flow is its source. *)
  Alcotest.(check (list int)) "box at source" [ 4 ]
    (P.to_list (Tdmd.Incremental.placement t));
  Tdmd.Incremental.arrive t (Flow.make ~id:1 ~rate:2 ~path:[ 2; 1; 0 ]);
  Alcotest.(check bool) "still feasible" true (Tdmd.Incremental.feasible t);
  Alcotest.(check bool) "within budget" true
    (P.size (Tdmd.Incremental.placement t) <= 2);
  Tdmd.Incremental.depart t 0;
  Alcotest.(check bool) "feasible after departure" true (Tdmd.Incremental.feasible t);
  Alcotest.(check int) "one flow left" 1 (List.length (Tdmd.Incremental.flows t));
  Alcotest.(check bool) "moves counted" true (Tdmd.Incremental.moves t >= 2)

let test_incremental_rejects () =
  let g = chain_graph 3 in
  let t = Tdmd.Incremental.create ~graph:g ~lambda:0.5 ~k:1 () in
  Tdmd.Incremental.arrive t (Flow.make ~id:0 ~rate:1 ~path:[ 2; 1; 0 ]);
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Incremental.arrive: duplicate flow id") (fun () ->
      Tdmd.Incremental.arrive t (Flow.make ~id:0 ~rate:1 ~path:[ 1; 0 ]))

let prop_incremental_stays_feasible =
  QCheck.Test.make ~name:"incremental stays feasible through random churn"
    ~count:30
    QCheck.(pair (int_bound 100000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.3 in
      let t = Tdmd.Incremental.create ~graph:g ~lambda:0.5 ~k:(max 2 (n / 3)) () in
      let next_id = ref 0 in
      let ok = ref true in
      for _ = 1 to 30 do
        if Rng.float rng 1.0 < 0.6 || Tdmd.Incremental.flows t = [] then begin
          let src = Rng.int rng n and dst = Rng.int rng n in
          if src <> dst then begin
            match Tdmd_graph.Bfs.shortest_path g ~src ~dst with
            | Some path ->
              Tdmd.Incremental.arrive t
                (Flow.make ~id:!next_id ~rate:(Rng.int_in rng 1 5) ~path);
              incr next_id
            | None -> ()
          end
        end
        else begin
          let fs = Tdmd.Incremental.flows t in
          let victim = List.nth fs (Rng.int rng (List.length fs)) in
          Tdmd.Incremental.depart t victim.Flow.id
        end;
        if not (Tdmd.Incremental.feasible t) then begin
          (* Infeasibility is acceptable only when even the set-cover
             greedy cannot serve the current flows within k (the
             maintainer's last resort is exactly that cover). *)
          let inst = Tdmd.Incremental.instance t in
          match Tdmd.Feasibility.greedy_cover inst with
          | Some cover when P.size cover <= max 2 (n / 3) -> ok := false
          | _ -> ()
        end
      done;
      !ok)

let test_incremental_quality_vs_scratch () =
  (* Across a timeline, the maintained deployment should stay within a
     reasonable factor of from-scratch GTP on each snapshot. *)
  let rng = Rng.create 77 in
  let g = Tdmd_topo.Topo_general.erdos_renyi rng 12 ~p:0.3 in
  let k = 4 in
  let t = Tdmd.Incremental.create ~graph:g ~lambda:0.5 ~k () in
  let next_id = ref 0 in
  let worst_ratio = ref 1.0 in
  for _ = 1 to 25 do
    (if Rng.float rng 1.0 < 0.7 || Tdmd.Incremental.flows t = [] then begin
       let src = Rng.int rng 12 and dst = Rng.int rng 12 in
       if src <> dst then begin
         match Tdmd_graph.Bfs.shortest_path g ~src ~dst with
         | Some path ->
           Tdmd.Incremental.arrive t
             (Flow.make ~id:!next_id ~rate:(Rng.int_in rng 1 5) ~path);
           incr next_id
         | None -> ()
       end
     end
     else begin
       let fs = Tdmd.Incremental.flows t in
       let victim = List.nth fs (Rng.int rng (List.length fs)) in
       Tdmd.Incremental.depart t victim.Flow.id
     end);
    if Tdmd.Incremental.flows t <> [] then begin
      let scratch = Tdmd.Gtp.run ~budget:k (Tdmd.Incremental.instance t) in
      if scratch.Tdmd.Solver_intf.bandwidth > 0.0 then begin
        let ratio = Tdmd.Incremental.bandwidth t /. scratch.Tdmd.Solver_intf.bandwidth in
        if ratio > !worst_ratio then worst_ratio := ratio
      end
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "within 2x of scratch GTP (worst %.2f)" !worst_ratio)
    true (!worst_ratio <= 2.0)

(* ------------------------------------------------------------------ *)
(* Binary-lifting LCA                                                  *)
(* ------------------------------------------------------------------ *)

let prop_lca_matches =
  QCheck.Test.make ~name:"binary-lifting LCA = naive" ~count:60
    QCheck.(pair (int_range 2 60) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let tree = Tdmd_topo.Topo_tree.random_attachment rng n in
      let lift = Tdmd_tree.Lca.build tree in
      let ok = ref true in
      for _ = 1 to 40 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if Tdmd_tree.Lca.query lift u v <> Tdmd_tree.Lca.naive tree u v then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Temporal workloads                                                  *)
(* ------------------------------------------------------------------ *)

let test_temporal () =
  let rng = Rng.create 5 in
  let timeline =
    Tdmd_traffic.Temporal.generate rng ~horizon:100.0 ~mean_interarrival:2.0
      ~mean_lifetime:10.0
      ~draw_flow:(fun _ id -> Flow.make ~id ~rate:1 ~path:[ 1; 0 ])
  in
  Alcotest.(check bool) "events exist" true (timeline <> []);
  (* Times sorted, ids dense, departures after arrivals. *)
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted timeline);
  let arrivals = Hashtbl.create 64 in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Tdmd_traffic.Temporal.Arrival f -> Hashtbl.replace arrivals f.Flow.id t
      | Tdmd_traffic.Temporal.Departure id ->
        (match Hashtbl.find_opt arrivals id with
        | Some t0 ->
          Alcotest.(check bool) "departure after arrival" true (t >= t0)
        | None -> Alcotest.fail "departure without arrival"))
    timeline;
  (* active_at is consistent with a manual replay. *)
  let active = Tdmd_traffic.Temporal.active_at timeline 50.0 in
  List.iter
    (fun f ->
      Alcotest.(check bool) "arrived before t" true
        (Hashtbl.find arrivals f.Flow.id <= 50.0))
    active

let suite =
  [
    Alcotest.test_case "dp-binary: fig5 agreement" `Quick test_dp_binary_fig5;
    QCheck_alcotest.to_alcotest prop_dp_binary_matches_general;
    Alcotest.test_case "dp-binary: rejects wide trees" `Quick
      test_dp_binary_rejects_wide;
    QCheck_alcotest.to_alcotest prop_dp_binary_placement_consistent;
    Alcotest.test_case "local search: improves fig1" `Quick
      test_local_search_improves_fig1;
    Alcotest.test_case "local search: rejects infeasible" `Quick
      test_local_search_rejects_infeasible;
    QCheck_alcotest.to_alcotest prop_local_search_never_worse;
    Alcotest.test_case "incremental: arrivals and departures" `Quick
      test_incremental_basic;
    Alcotest.test_case "incremental: rejects duplicates" `Quick
      test_incremental_rejects;
    QCheck_alcotest.to_alcotest prop_incremental_stays_feasible;
    Alcotest.test_case "incremental: quality vs scratch GTP" `Quick
      test_incremental_quality_vs_scratch;
    QCheck_alcotest.to_alcotest prop_lca_matches;
    Alcotest.test_case "temporal workload" `Quick test_temporal;
  ]
