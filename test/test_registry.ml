(* Solver registry: every registered solver must produce a feasible,
   correctly-priced outcome on the paper's worked examples, a registry
   row must report the same work counters as a direct call, and every
   name must reproduce its golden outcomes. *)

open Tdmd_prelude
module Solvers = Tdmd.Solvers
module Tel = Tdmd_obs.Telemetry
module Scenario = Tdmd_sim.Scenario

let check_priced name inst (o : Tdmd.Solver_intf.outcome) =
  Alcotest.(check bool) (name ^ " feasible") true o.Tdmd.Solver_intf.feasible;
  Alcotest.(check (float 0.0)) (name ^ " bandwidth matches its placement")
    (Tdmd.Bandwidth.total inst o.Tdmd.Solver_intf.placement)
    o.Tdmd.Solver_intf.bandwidth

let test_general_solvers () =
  let inst = Fixtures.fig1_instance () in
  List.iter
    (fun (name, solve) ->
      let o = solve ~rng:(Rng.create 7) ~k:3 inst in
      check_priced name inst o)
    (Solvers.general ());
  (* Fig. 1 worked optimum at k = 3 is 8: brute must hit it and the
     greedy must match on this instance (Tab. 2's trace). *)
  let bw name =
    let solve = Option.get (Solvers.find_general name) in
    (solve ~rng:(Rng.create 7) ~k:3 inst).Tdmd.Solver_intf.bandwidth
  in
  Alcotest.(check (float 1e-9)) "brute optimum" 8.0 (bw "brute");
  Alcotest.(check (float 1e-9)) "gtp matches the worked example" 8.0 (bw "gtp");
  Alcotest.(check (float 0.0)) "celf = gtp" (bw "gtp") (bw "celf")

let test_tree_solvers () =
  (* Fig. 5 is binary, so even dp-binary runs on it. *)
  let inst = Fixtures.fig5_instance () in
  let general = Tdmd.Instance.Tree.to_general inst in
  List.iter
    (fun (name, solve) ->
      let o = solve ~rng:(Rng.create 7) ~k:2 inst in
      check_priced name general o)
    (Solvers.tree ());
  let bw name =
    let solve = Option.get (Solvers.find_tree name) in
    (solve ~rng:(Rng.create 7) ~k:2 inst).Tdmd.Solver_intf.bandwidth
  in
  Alcotest.(check (float 0.0)) "dp-binary = dp" (bw "dp") (bw "dp-binary");
  Alcotest.(check bool) "dp optimal vs hat" true (bw "dp" <= bw "hat")

let test_on_tree_lifts_general () =
  let inst = Fixtures.fig5_instance () in
  let lifted = Option.get (Solvers.on_tree "gtp") in
  let o = lifted ~rng:(Rng.create 7) ~k:2 inst in
  let direct = Tdmd.Gtp.run ~budget:2 (Tdmd.Instance.Tree.to_general inst) in
  Alcotest.(check (float 0.0)) "lifted gtp = direct gtp"
    direct.Tdmd.Solver_intf.bandwidth o.Tdmd.Solver_intf.bandwidth;
  Alcotest.(check bool) "tree-only name not in general table" true
    (Solvers.find_general "dp" = None);
  Alcotest.(check bool) "unknown name rejected" true (Solvers.on_tree "nope" = None)

let test_telemetry_matches_reports () =
  let inst = Fixtures.fig1_instance () in
  let run name =
    let solve = Option.get (Solvers.find_general name) in
    solve ~rng:(Rng.create 7) ~k:3 inst
  in
  let calls o = Fixtures.count o "oracle_calls" in
  let gtp = calls (Tdmd.Gtp.run ~budget:3 inst) in
  Alcotest.(check int) "gtp oracle_calls: registry = direct call" gtp
    (calls (run "gtp"));
  let celf = calls (Tdmd.Gtp.run_celf ~budget:3 inst) in
  Alcotest.(check int) "celf oracle_calls: registry = direct call" celf
    (calls (run "celf"));
  Alcotest.(check bool) "celf lazily skips oracle calls" true (celf <= gtp);
  (* Every solver run leaves at least one closed span behind. *)
  List.iter
    (fun (name, solve) ->
      let o = solve ~rng:(Rng.create 7) ~k:3 inst in
      Alcotest.(check bool) (name ^ " recorded a span") true
        (Tel.spans o.Tdmd.Solver_intf.telemetry <> []))
    (Solvers.general ())

let test_names_unique () =
  let names = Solvers.names () in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length sorted);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves on trees") true
        (Solvers.on_tree name <> None))
    names

(* Golden outcomes: every registry name, run on fixed seeded instances,
   must reproduce test/registry_golden.txt line for line.  A line pins
   the placement, the bandwidth's bits, feasibility, every metric in
   first-write order (the order a solve reply puts them on the wire)
   and the span-label tree.  Two metrics are left out: "oracle_ns" is a
   wall-clock timing, and the portfolio's "improvements" counts how
   often its members' domains happened to beat each other's incumbent,
   which depends on scheduling.  A name that raises (dp-binary on a
   non-binary tree) records the exception instead. *)
let golden_file = "registry_golden.txt"

let golden_value = function
  | Tel.Int n -> string_of_int n
  | Tel.Float f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)
  | Tel.Bool b -> string_of_bool b
  | Tel.String s -> Printf.sprintf "%S" s

let rec golden_span (s : Tel.span) =
  match s.Tel.children with
  | [] -> s.Tel.label
  | cs ->
    Printf.sprintf "%s(%s)" s.Tel.label (String.concat "," (List.map golden_span cs))

let golden_line ~tag ~k name run =
  match run (Rng.create 42) with
  | exception Invalid_argument msg ->
    Printf.sprintf "%s k=%d %s raises Invalid_argument %S" tag k name msg
  | (o : Tdmd.Solver_intf.outcome) ->
    let tel = o.Tdmd.Solver_intf.telemetry in
    let kept (key, _) =
      key <> "oracle_ns" && not (name = "portfolio" && key = "improvements")
    in
    Printf.sprintf "%s k=%d %s placement=[%s] bw=%Lx feasible=%b metrics=[%s] spans=[%s]"
      tag k name
      (String.concat ","
         (List.map string_of_int (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement)))
      (Int64.bits_of_float o.Tdmd.Solver_intf.bandwidth)
      o.Tdmd.Solver_intf.feasible
      (String.concat ","
         (List.filter_map
            (fun ((key, v) as m) ->
              if kept m then Some (key ^ "=" ^ golden_value v) else None)
            (Tel.metrics tel)))
      (String.concat "," (List.map golden_span (Tel.spans tel)))

let golden_lines () =
  Tdmd_portfolio.Register.install ();
  (* Every (λ, seed, k) cell of one topology family, each solver in
     registry order. *)
  let grid family build solvers =
    List.concat_map
      (fun lambda ->
        List.concat_map
          (fun seed ->
            let inst = build seed lambda in
            let tag = Printf.sprintf "%s lambda=%g seed=%d" family lambda seed in
            List.concat_map
              (fun k ->
                List.map
                  (fun (name, solve) ->
                    golden_line ~tag ~k name (fun rng -> solve ~rng ~k inst))
                  solvers)
              [ 1; 3; 4 ])
          [ 1; 2 ])
      [ 0.0; 0.5; 1.0 ]
  in
  let general =
    grid "general"
      (fun seed lambda ->
        Scenario.build_general (Rng.create (500 + seed))
          { Scenario.default_general with Scenario.size = 20; lambda })
      (Solvers.general ())
  in
  let tree =
    grid "tree"
      (fun seed lambda ->
        Scenario.build_tree (Rng.create (600 + seed))
          { Scenario.default_tree with Scenario.size = 22; lambda })
      (List.map
         (fun name -> (name, Option.get (Solvers.on_tree name)))
         (Solvers.names ()))
  in
  general @ tree

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden_outcomes () =
  let expected = read_lines golden_file and actual = golden_lines () in
  Alcotest.(check int) "golden line count" (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check string) (Printf.sprintf "golden line %d" (i + 1)) e a)
    (List.combine expected actual)

(* One graph and flow set, general or tree (random attachment or
   binary, so dp-binary runs too), solved by every registry name: the
   instances at λ = 0 and at several λ in [0, 1) — non-dyadic ones,
   1 − 2⁻⁴⁵ and 1 − 2⁻⁵⁰ among them — differ only in λ, and decisions
   read the diminished volume, which λ does not change.  So each name
   deploys, for the same k and rng seed, what it deploys at λ = 0 (or
   raises the same error). *)
let family rng =
  let n = Rng.int_in rng 4 12 in
  let k = 1 + Rng.int rng n in
  let run solvers inst =
    List.map
      (fun (name, solve) ->
        match solve ~rng:(Rng.create 42) ~k inst with
        | (o : Tdmd.Solver_intf.outcome) ->
          (name, Ok (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement))
        | exception Invalid_argument msg -> (name, Error msg))
      solvers
  in
  if Rng.bool rng then begin
    let base =
      Fixtures.random_tree_instance ~binary:(Rng.bool rng) rng ~n ~max_rate:6 ~lambda:0.0
    in
    let tree = base.Tdmd.Instance.Tree.tree
    and flows = Array.to_list base.Tdmd.Instance.Tree.flows in
    let solvers =
      List.map (fun name -> (name, Option.get (Solvers.on_tree name))) (Solvers.names ())
    in
    fun lambda -> run solvers (Tdmd.Instance.Tree.make ~tree ~flows ~lambda)
  end
  else begin
    let base = Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:6 ~lambda:0.0 in
    let graph = base.Tdmd.Instance.graph and flows = Tdmd.Instance.flows base in
    fun lambda -> run (Solvers.general ()) (Tdmd.Instance.make ~graph ~flows ~lambda)
  end

let prop_lambda_independent =
  QCheck.Test.make ~name:"registry: placements below lambda 1 do not depend on lambda"
    ~count:20 QCheck.(int_bound 1_000_000)
    (fun seed ->
      Tdmd_portfolio.Register.install ();
      let rng = Rng.create seed in
      let solve = family rng in
      let at_zero = solve 0.0 in
      List.for_all
        (fun lambda -> solve lambda = at_zero)
        [ 0.1; 0.3; 0.7; 0.9; 1.0 -. ldexp 1.0 (-45); 1.0 -. ldexp 1.0 (-50);
          Rng.float rng 1.0 ])

(* Every registry name at a random λ, dyadic or not and 1 among them:
   [volume] is the diminished volume of the placement and [bandwidth]
   has the bits of its render. *)
let prop_one_renderer =
  QCheck.Test.make ~name:"registry: bandwidth is the render of the placement's volume"
    ~count:30 QCheck.(int_bound 1_000_000)
    (fun seed ->
      Tdmd_portfolio.Register.install ();
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 12 in
      let k = 1 + Rng.int rng n in
      let lambda =
        match Rng.int rng 4 with
        | 0 -> float_of_int (Rng.int rng 5) /. 4.0
        | 1 -> 1.0 -. ldexp 1.0 (-45)
        | _ -> Rng.float rng 1.0
      in
      let general, outcomes =
        if Rng.bool rng then begin
          let inst = Fixtures.random_tree_instance ~binary:true rng ~n ~max_rate:6 ~lambda in
          ( Tdmd.Instance.Tree.to_general inst,
            List.map
              (fun name -> (Option.get (Solvers.on_tree name)) ~rng:(Rng.create seed) ~k inst)
              (Solvers.names ()) )
        end
        else begin
          let inst = Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:6 ~lambda in
          ( inst,
            List.map
              (fun (_, solve) -> solve ~rng:(Rng.create seed) ~k inst)
              (Solvers.general ()) )
        end
      in
      List.for_all
        (fun (o : Tdmd.Solver_intf.outcome) ->
          let d = Tdmd.Bandwidth.diminished_volume general o.Tdmd.Solver_intf.placement in
          o.Tdmd.Solver_intf.volume = d
          && Int64.bits_of_float o.Tdmd.Solver_intf.bandwidth
             = Int64.bits_of_float
                 (Tdmd.Bandwidth.render ~lambda
                    ~total:(Tdmd.Instance.total_path_volume general)
                    d))
        outcomes)

(* Every registry name, on a general, a tree or a binary-tree instance,
   at every budget from 0 to |V|: the placement never has more than k
   boxes, and at k = 0 it is empty, with volume 0, feasible exactly when
   there are no flows.  A name that refuses the instance (dp-binary on
   a wider tree) raises instead. *)
let prop_budget_kept =
  QCheck.Test.make ~name:"registry: no placement exceeds its budget, k = 0 included"
    ~count:8 QCheck.(int_bound 1_000_000)
    (fun seed ->
      Tdmd_portfolio.Register.install ();
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 12 in
      let lambda = float_of_int (Rng.int rng 5) /. 4.0 in
      (* Each name as a function of k alone, with the instance's flow count. *)
      let runs, flows =
        match Rng.int rng 3 with
        | 0 ->
          let inst = Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:6 ~lambda in
          ( List.map
              (fun (name, solve) -> (name, fun k -> solve ~rng:(Rng.create seed) ~k inst))
              (Solvers.general ()),
            Tdmd.Instance.flow_count inst )
        | shape ->
          let inst =
            Fixtures.random_tree_instance ~binary:(shape = 2) rng ~n ~max_rate:6 ~lambda
          in
          ( List.map
              (fun name ->
                let solve = Option.get (Solvers.on_tree name) in
                (name, fun k -> solve ~rng:(Rng.create seed) ~k inst))
              (Solvers.names ()),
            Array.length inst.Tdmd.Instance.Tree.flows )
      in
      List.for_all
        (fun (name, run) ->
          List.for_all
            (fun k ->
              match run k with
              | exception Invalid_argument _ -> name = "dp-binary"
              | (o : Tdmd.Solver_intf.outcome) ->
                Tdmd.Placement.size o.Tdmd.Solver_intf.placement <= k
                && (k > 0
                   || (o.Tdmd.Solver_intf.volume = 0
                      && o.Tdmd.Solver_intf.feasible = (flows = 0))))
            (List.init (n + 1) Fun.id))
        runs)

let suite =
  [
    Alcotest.test_case "registry: general solvers on fig1" `Quick
      test_general_solvers;
    Alcotest.test_case "registry: tree solvers on fig5" `Quick test_tree_solvers;
    Alcotest.test_case "registry: on_tree lifts general solvers" `Quick
      test_on_tree_lifts_general;
    Alcotest.test_case "registry: telemetry matches report fields" `Quick
      test_telemetry_matches_reports;
    Alcotest.test_case "registry: names unique and tree-resolvable" `Quick
      test_names_unique;
    Alcotest.test_case "registry: golden outcomes" `Quick test_golden_outcomes;
    QCheck_alcotest.to_alcotest prop_lambda_independent;
    QCheck_alcotest.to_alcotest prop_one_renderer;
    QCheck_alcotest.to_alcotest prop_budget_kept;
  ]
