(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) and runs Bechamel micro-benchmarks of each
   algorithm at the default scenario.

     dune exec bench/main.exe            # everything (figures 9-17 + micro + ablation)
     dune exec bench/main.exe fig9       # one figure
     dune exec bench/main.exe fig17
     dune exec bench/main.exe micro
     dune exec bench/main.exe solvers    # registry sweep -> BENCH_solvers.json
     dune exec bench/main.exe churn-timeline  # budget Pareto -> BENCH_churn.json
     dune exec bench/main.exe portfolio  # quality vs budget -> BENCH_portfolio.json
     dune exec bench/main.exe chaos      # randomized fault soak -> BENCH_chaos.json
     dune exec bench/main.exe ablation

   Absolute values depend on this synthetic substrate (see DESIGN.md §2);
   the paper-shape expectations are recorded in EXPERIMENTS.md. *)

open Tdmd_sim

(* The metaheuristic portfolio registers its solvers dynamically; pull
   them in so the registry sweeps below see anneal/genetic/portfolio
   next to the builtins. *)
let () = Tdmd_portfolio.Register.install ()

let reps = 5

(* Set TDMD_BENCH_CSV=<dir> to also dump each figure's series as CSV. *)
let csv_dir = Sys.getenv_opt "TDMD_BENCH_CSV"

let maybe_csv (result : Experiments.result) =
  match csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (result.Experiments.fig_id ^ ".csv") in
    let oc = open_out path in
    output_string oc (Report.result_csv result);
    close_out oc;
    Printf.printf "(csv written to %s)\n" path

let print_line_figure result =
  Report.print_result result;
  maybe_csv result

(* The paper's Fig. 8: what the simulation topologies look like. *)
let fig8 () =
  let rng = Tdmd_prelude.Rng.create 8000 in
  let ark = Tdmd_topo.Ark.generate rng ~n:64 in
  print_endline "== fig8(a): synthetic Ark infrastructure ==\n";
  print_string (Tdmd_topo.Topo_stats.render (Tdmd_topo.Topo_stats.compute ark.Tdmd_topo.Ark.graph));
  let tree = Tdmd_topo.Topo_tree.resize rng (Tdmd_topo.Ark.tree_of rng ark) 22 in
  print_endline "\n== fig8(b): tree topology (22 vertices, root = hub) ==\n";
  print_string
    (Tdmd_topo.Topo_stats.render
       (Tdmd_topo.Topo_stats.compute (Tdmd_tree.Rooted_tree.to_digraph tree)));
  let general, dests = Tdmd_topo.Ark.general_of rng ark ~size:30 in
  Printf.printf "\n== fig8(c): general topology (30 vertices, %d red destinations) ==\n\n"
    (List.length dests);
  print_string (Tdmd_topo.Topo_stats.render (Tdmd_topo.Topo_stats.compute general))

let line_figures =
  [
    ("fig8", fig8);
    ("fig9", fun () -> print_line_figure (Experiments.fig9 ~reps ()));
    ("fig10", fun () -> print_line_figure (Experiments.fig10 ~reps ()));
    ("fig11", fun () -> print_line_figure (Experiments.fig11 ~reps ()));
    ("fig12", fun () -> print_line_figure (Experiments.fig12 ~reps ()));
    ("fig13", fun () -> print_line_figure (Experiments.fig13 ~reps ()));
    ("fig14", fun () -> print_line_figure (Experiments.fig14 ~reps ()));
    ("fig15", fun () -> print_line_figure (Experiments.fig15 ~reps ()));
    ("fig16", fun () -> print_line_figure (Experiments.fig16 ~reps ()));
    ( "fig17",
      fun () ->
        Report.print_grid (Experiments.fig17_tree ());
        print_newline ();
        Report.print_grid (Experiments.fig17_general ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per algorithm              *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let rng = Tdmd_prelude.Rng.create 4242 in
  let tree_inst = Scenario.build_tree rng Scenario.default_tree in
  let tree_general = Tdmd.Instance.Tree.to_general tree_inst in
  let general_inst = Scenario.build_general rng Scenario.default_general in
  let kt = Scenario.default_tree.Scenario.k in
  let kg = Scenario.default_general.Scenario.k in
  let tests =
    [
      Test.make ~name:"GTP (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Gtp.run ~budget:kt tree_general)));
      Test.make ~name:"GTP-CELF (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Gtp.run_celf ~budget:kt tree_general)));
      Test.make ~name:"HAT (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Hat.run ~k:kt tree_inst)));
      Test.make ~name:"DP (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Dp.solve ~k:kt tree_inst)));
      Test.make ~name:"Scaled-DP theta=4 (tree)"
        (Staged.stage (fun () -> ignore (Tdmd.Scaled_dp.solve ~k:kt ~theta:4 tree_inst)));
      Test.make ~name:"Best-effort (tree)"
        (Staged.stage (fun () ->
             ignore (Tdmd.Baselines.best_effort ~k:kt tree_general)));
      Test.make ~name:"GTP (general)"
        (Staged.stage (fun () -> ignore (Tdmd.Gtp.run ~budget:kg general_inst)));
      Test.make ~name:"Best-effort (general)"
        (Staged.stage (fun () ->
             ignore (Tdmd.Baselines.best_effort ~k:kg general_inst)));
      Test.make ~name:"Random (general)"
        (Staged.stage (fun () ->
             ignore (Tdmd.Baselines.random (Tdmd_prelude.Rng.create 7) ~k:kg general_inst)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  print_endline "== micro-benchmarks (Bechamel, monotonic clock) ==\n";
  let t = Tdmd_prelude.Table.create [ "algorithm"; "time per run" ] in
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | _ -> nan
          in
          let cell =
            if Float.is_nan ns then "n/a"
            else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else Printf.sprintf "%.1f us" (ns /. 1e3)
          in
          Tdmd_prelude.Table.add_row t [ name; cell ])
        results)
    tests;
  Tdmd_prelude.Table.print t

let ablation () = Report.print_ablation (Experiments.ablation ())

(* ------------------------------------------------------------------ *)
(* Registry sweep: every solver at its default scenario, JSON-lines    *)
(* ------------------------------------------------------------------ *)

(* One record per registered solver into BENCH_solvers.json (path
   overridable with TDMD_BENCH_JSON): wall-clock summary over [reps]
   runs plus the last run's telemetry.  Solvers that cannot handle the
   default scenario (e.g. brute's subset cap) yield an error record
   instead of aborting the sweep. *)
let solvers_json_path =
  match Sys.getenv_opt "TDMD_BENCH_JSON" with
  | Some p -> p
  | None -> "BENCH_solvers.json"

let solvers () =
  let open Tdmd_prelude in
  let rng = Rng.create 4242 in
  let tree_inst = Scenario.build_tree rng Scenario.default_tree in
  let general_inst = Scenario.build_general rng Scenario.default_general in
  let kt = Scenario.default_tree.Scenario.k in
  let kg = Scenario.default_general.Scenario.k in
  let oc = open_out solvers_json_path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  let summary_json (s : Stats.summary) =
    Tdmd_obs.Json.Obj
      [
        ("mean", Tdmd_obs.Json.Float s.Stats.mean);
        ("stddev", Tdmd_obs.Json.Float s.Stats.stddev);
        ("min", Tdmd_obs.Json.Float s.Stats.min);
        ("max", Tdmd_obs.Json.Float s.Stats.max);
      ]
  in
  let bench_one ~input ~name ~k run =
    let record =
      match
        List.init reps (fun i ->
            let rng = Rng.create (1000 + i) in
            Timer.time (fun () -> run ~rng ~k))
      with
      | runs ->
        let seconds = Stats.summarize (List.map snd runs) in
        let outcome = fst (List.hd (List.rev runs)) in
        Tdmd_obs.Sink.record ~event:"bench"
          ~extra:
            [
              ("solver", Tdmd_obs.Json.String name);
              ("input", Tdmd_obs.Json.String input);
              ("k", Tdmd_obs.Json.Int k);
              ("reps", Tdmd_obs.Json.Int reps);
              ("seconds", summary_json seconds);
              ( "bandwidth",
                Tdmd_obs.Json.Float outcome.Tdmd.Solver_intf.bandwidth );
              ( "feasible",
                Tdmd_obs.Json.Bool outcome.Tdmd.Solver_intf.feasible );
            ]
          outcome.Tdmd.Solver_intf.telemetry
      | exception exn ->
        Tdmd_obs.Json.Obj
          [
            ("event", Tdmd_obs.Json.String "bench-error");
            ("solver", Tdmd_obs.Json.String name);
            ("input", Tdmd_obs.Json.String input);
            ("error", Tdmd_obs.Json.String (Printexc.to_string exn));
          ]
    in
    Tdmd_obs.Sink.emit sink record
  in
  List.iter
    (fun (name, f) ->
      bench_one ~input:"general" ~name ~k:kg (fun ~rng ~k ->
          f ~rng ~k general_inst))
    (Tdmd.Solvers.general ());
  List.iter
    (fun (name, f) ->
      bench_one ~input:"tree" ~name ~k:kt (fun ~rng ~k -> f ~rng ~k tree_inst))
    (Tdmd.Solvers.tree ());
  close_out oc;
  Printf.printf "== solver registry sweep ==\n\nwrote %s (%d solvers)\n"
    solvers_json_path
    (List.length (Tdmd.Solvers.names ()))

(* ------------------------------------------------------------------ *)
(* Serve bench: closed-loop clients against an in-process server       *)
(* ------------------------------------------------------------------ *)

(* Starts `tdmd serve` in-process on a Unix socket, then sweeps client
   concurrency; every client is one OS thread running a closed loop of
   solve requests over its own connection.  Per-request latency is
   measured client-side (includes framing + queueing + solve), p50/p95/
   p99 come from the raw samples, and one JSON-lines record per
   concurrency level lands in BENCH_serve.json (path overridable with
   TDMD_BENCH_SERVE_JSON; TDMD_BENCH_SERVE_QUICK=1 shrinks the sweep
   for CI smoke). *)
let serve_json_path =
  match Sys.getenv_opt "TDMD_BENCH_SERVE_JSON" with
  | Some p -> p
  | None -> "BENCH_serve.json"

let serve_quick = Sys.getenv_opt "TDMD_BENCH_SERVE_QUICK" <> None

let serve_bench () =
  let open Tdmd_prelude in
  let module Server = Tdmd_server.Server in
  let module Client = Tdmd_server.Client in
  let module P = Tdmd_server.Protocol in
  let levels = if serve_quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let per_client = if serve_quick then 8 else 50 in
  let rng = Rng.create 4242 in
  let tree_inst = Scenario.build_tree rng Scenario.default_tree in
  let k = Scenario.default_tree.Scenario.k in
  let engine =
    Tdmd_server.Engine.create
      ~config:
        {
          Tdmd_server.Session.Config.default with
          Tdmd_server.Session.Config.churn_k = k;
        }
      (Tdmd_server.Engine.Tree tree_inst)
  in
  let sock = Filename.temp_file "tdmd-bench" ".sock" in
  Sys.remove sock;
  let addr = P.Unix_sock sock in
  let server =
    Server.start
      {
        Server.addr;
        domains = Parallel.recommended_domains ();
        queue_capacity = 256;
        default_deadline_ms = None;
        metrics_out = None;
      }
      engine
  in
  (* Sanity: a served answer must be bit-identical to a direct registry
     call with the same seed. *)
  (let c = Result.get_ok (Client.connect_retry addr) in
   let response =
     Client.rpc c (P.Solve { algo = "gtp"; k; seed = 1; target = P.Static })
   in
   Client.close c;
   let direct =
     (Option.get (Tdmd.Solvers.on_tree "gtp")) ~rng:(Rng.create 1) ~k tree_inst
   in
   match response with
   | Ok resp ->
     let served_placement =
       match Tdmd_obs.Json.member "placement" resp with
       | Some (Tdmd_obs.Json.List vs) ->
         List.filter_map
           (function Tdmd_obs.Json.Int v -> Some v | _ -> None)
           vs
       | _ -> []
     in
     if
       served_placement
       <> Tdmd.Placement.to_list direct.Tdmd.Solver_intf.placement
       || Tdmd_obs.Json.member "bandwidth" resp
          <> Some (Tdmd_obs.Json.Float direct.Tdmd.Solver_intf.bandwidth)
     then failwith "serve bench: served answer differs from direct call"
   | Error msg -> failwith ("serve bench: " ^ msg));
  let oc = open_out serve_json_path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  print_endline "== serve bench: closed-loop clients, solve(gtp) ==\n";
  let table =
    Table.create
      [ "clients"; "requests"; "wall (s)"; "req/s"; "p50 (ms)"; "p95 (ms)"; "p99 (ms)" ]
  in
  List.iter
    (fun clients ->
      let total = clients * per_client in
      let latencies_ms = Array.make total nan in
      let errors = Array.make clients 0 in
      let t0 = Tdmd_obs.Clock.now_ns () in
      let run ci =
        match Client.connect_retry addr with
        | Error _ -> errors.(ci) <- per_client
        | Ok c ->
          for r = 0 to per_client - 1 do
            let i = (ci * per_client) + r in
            let s0 = Tdmd_obs.Clock.now_ns () in
            (match
               Client.rpc c
                 (P.Solve { algo = "gtp"; k; seed = i; target = P.Static })
             with
            | Ok resp
              when Tdmd_obs.Json.member "ok" resp = Some (Tdmd_obs.Json.Bool true)
              ->
              latencies_ms.(i) <-
                Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) s0) /. 1e6
            | Ok _ | Error _ -> errors.(ci) <- errors.(ci) + 1)
          done;
          Client.close c
      in
      let threads = List.init clients (fun ci -> Thread.create run ci) in
      List.iter Thread.join threads;
      let wall =
        Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0) /. 1e9
      in
      let errors = Array.fold_left ( + ) 0 errors in
      let samples =
        Array.of_list
          (List.filter
             (fun x -> not (Float.is_nan x))
             (Array.to_list latencies_ms))
      in
      let pct p = if Array.length samples = 0 then nan else Stats.percentile samples p in
      let throughput = float_of_int (total - errors) /. Float.max wall 1e-9 in
      Tdmd_obs.Sink.emit sink
        (Tdmd_obs.Json.Obj
           [
             ("event", Tdmd_obs.Json.String "bench-serve");
             ("concurrency", Tdmd_obs.Json.Int clients);
             ("requests", Tdmd_obs.Json.Int total);
             ("errors", Tdmd_obs.Json.Int errors);
             ("wall_seconds", Tdmd_obs.Json.Float wall);
             ("throughput_rps", Tdmd_obs.Json.Float throughput);
             ("p50_ms", Tdmd_obs.Json.Float (pct 0.50));
             ("p95_ms", Tdmd_obs.Json.Float (pct 0.95));
             ("p99_ms", Tdmd_obs.Json.Float (pct 0.99));
           ]);
      Table.add_row table
        [
          string_of_int clients;
          string_of_int total;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" throughput;
          Printf.sprintf "%.2f" (pct 0.50);
          Printf.sprintf "%.2f" (pct 0.95);
          Printf.sprintf "%.2f" (pct 0.99);
        ])
    levels;
  Server.request_stop server;
  Server.wait server;
  Table.print table;
  (* Shard sweep: closed-loop churn (arrive/depart) against a durable
     sharded engine, fixed client count across shard counts — the rps
     column isolates what sharding buys.  On the line topology each
     shard's churn engine scans only its own region's flows, and the
     shards' group commits overlap, so rps should grow with the shard
     count.  Per-shard queue/batch counters come back over the wire via
     the [stats] op and land in the JSON record. *)
  print_endline "\n== serve bench: sharded churn, arrive/depart ==\n";
  let shard_levels = if serve_quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let churn_clients = if serve_quick then 4 else 8 in
  let churn_per_client = if serve_quick then 30 else 150 in
  let n_vertices = 256 in
  let g = Tdmd_graph.Digraph.create n_vertices in
  for v = 0 to n_vertices - 2 do
    Tdmd_graph.Digraph.add_undirected g v (v + 1)
  done;
  let base_inst =
    Tdmd.Instance.make ~graph:g
      ~flows:[ Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1; 2 ] ]
      ~lambda:0.5
  in
  let rec rm_rf_rec dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then rm_rf_rec p else Sys.remove p)
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let shard_table =
    Table.create
      [ "shards"; "requests"; "errors"; "wall (s)"; "req/s"; "speedup";
        "p50 (ms)"; "p99 (ms)"; "batch avg"; "queue peak" ]
  in
  let base_rps = ref nan in
  List.iter
    (fun shards ->
      let dir = Filename.temp_file "tdmd-bench-shard" "" in
      Sys.remove dir;
      (* Seeds at region midpoints so the BFS fronts meet at the block
         boundaries: shard i owns a contiguous slice of the line. *)
      let seeds =
        List.init shards (fun i ->
            (i * n_vertices / shards) + (n_vertices / (2 * shards)))
      in
      let partition = Tdmd_topo.Partition.make ~seeds g ~shards in
      let lo = Array.make shards max_int and hi = Array.make shards (-1) in
      for v = 0 to n_vertices - 1 do
        let s = Tdmd_topo.Partition.owner partition v in
        if v < lo.(s) then lo.(s) <- v;
        if v > hi.(s) then hi.(s) <- v
      done;
      let config =
        {
          Tdmd_server.Session.Config.default with
          Tdmd_server.Session.Config.durability =
            Some
              (Tdmd_server.Session.durability ~fsync:Tdmd_server.Journal.Always
                 dir);
        }
      in
      let engine =
        Tdmd_server.Engine.create ~config ~shards ~partition
          (Tdmd_server.Engine.General base_inst)
      in
      let sock = Filename.temp_file "tdmd-bench" ".sock" in
      Sys.remove sock;
      let addr = P.Unix_sock sock in
      let server =
        Server.start
          {
            Server.addr;
            domains = churn_clients;
            queue_capacity = 256;
            default_deadline_ms = None;
            metrics_out = None;
          }
          engine
      in
      let total = churn_clients * churn_per_client in
      let latencies_ms = Array.make total nan in
      let errors = Array.make churn_clients 0 in
      let t0 = Tdmd_obs.Clock.now_ns () in
      let run ci =
        match Client.connect_retry addr with
        | Error _ -> errors.(ci) <- churn_per_client
        | Ok c ->
          let s = ci mod shards in
          let rng = Rng.create (7001 + ci) in
          let live = ref [] in
          for r = 0 to churn_per_client - 1 do
            let i = (ci * churn_per_client) + r in
            let s0 = Tdmd_obs.Clock.now_ns () in
            let resp =
              if r mod 3 = 2 && !live <> [] then begin
                let id = List.hd !live in
                live := List.tl !live;
                Client.rpc c (P.Depart id)
              end
              else begin
                let id = ((ci + 1) * 1_000_000) + r in
                let path =
                  if r mod 16 = 15 && shards > 1 && s < shards - 1 then
                    (* Straddle the next block boundary: exercises the
                       cross-shard two-phase path. *)
                    List.init 6 (fun j -> hi.(s) - 2 + j)
                  else begin
                    let a = lo.(s) + Rng.int rng (hi.(s) - lo.(s) - 1) in
                    let b = min hi.(s) (a + 1 + Rng.int rng 5) in
                    List.init (b - a + 1) (fun j -> a + j)
                  end
                in
                let resp =
                  Client.rpc c (P.Arrive { id; rate = 1 + Rng.int rng 8; path })
                in
                (match resp with
                | Ok j
                  when Tdmd_obs.Json.member "ok" j
                       = Some (Tdmd_obs.Json.Bool true) ->
                  live := !live @ [ id ]
                | Ok _ | Error _ -> ());
                resp
              end
            in
            match resp with
            | Ok j
              when Tdmd_obs.Json.member "ok" j = Some (Tdmd_obs.Json.Bool true)
              ->
              latencies_ms.(i) <-
                Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) s0) /. 1e6
            | Ok _ | Error _ -> errors.(ci) <- errors.(ci) + 1
          done;
          Client.close c
      in
      let threads = List.init churn_clients (fun ci -> Thread.create run ci) in
      List.iter Thread.join threads;
      let wall =
        Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0) /. 1e9
      in
      (* Per-shard queue/batch counters, over the wire like any client
         would read them ([stats] carries a ["shards"] list when the
         engine is sharded). *)
      let per_shard =
        match Client.connect_retry addr with
        | Error _ -> Tdmd_obs.Json.List []
        | Ok c ->
          let stats = Client.rpc c P.Stats in
          Client.close c;
          (match stats with
          | Ok j -> (
            match Tdmd_obs.Json.member "shards" j with
            | Some (Tdmd_obs.Json.List l) -> Tdmd_obs.Json.List l
            | _ -> Tdmd_obs.Json.List [])
          | Error _ -> Tdmd_obs.Json.List [])
      in
      Server.request_stop server;
      Server.wait server;
      Tdmd_server.Engine.close engine;
      rm_rf_rec dir;
      let errors = Array.fold_left ( + ) 0 errors in
      let samples =
        Array.of_list
          (List.filter
             (fun x -> not (Float.is_nan x))
             (Array.to_list latencies_ms))
      in
      let pct p =
        if Array.length samples = 0 then nan else Stats.percentile samples p
      in
      let throughput = float_of_int (total - errors) /. Float.max wall 1e-9 in
      if shards = 1 then base_rps := throughput;
      let speedup = throughput /. !base_rps in
      let shard_float get =
        match per_shard with
        | Tdmd_obs.Json.List (_ :: _ as l) ->
          let vs =
            List.filter_map
              (fun o ->
                match Tdmd_obs.Json.member get o with
                | Some (Tdmd_obs.Json.Float f) -> Some f
                | Some (Tdmd_obs.Json.Int i) -> Some (float_of_int i)
                | _ -> None)
              l
          in
          if vs = [] then None
          else Some (List.fold_left Float.max neg_infinity vs)
        | _ -> None
      in
      Tdmd_obs.Sink.emit sink
        (Tdmd_obs.Json.Obj
           [
             ("event", Tdmd_obs.Json.String "bench-serve-shards");
             ("shards", Tdmd_obs.Json.Int shards);
             ("clients", Tdmd_obs.Json.Int churn_clients);
             ("requests", Tdmd_obs.Json.Int total);
             ("errors", Tdmd_obs.Json.Int errors);
             ("wall_seconds", Tdmd_obs.Json.Float wall);
             ("throughput_rps", Tdmd_obs.Json.Float throughput);
             ("speedup_vs_one_shard", Tdmd_obs.Json.Float speedup);
             ("p50_ms", Tdmd_obs.Json.Float (pct 0.50));
             ("p95_ms", Tdmd_obs.Json.Float (pct 0.95));
             ("p99_ms", Tdmd_obs.Json.Float (pct 0.99));
             ("per_shard", per_shard);
           ]);
      Table.add_row shard_table
        [
          string_of_int shards;
          string_of_int total;
          string_of_int errors;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" throughput;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.2f" (pct 0.50);
          Printf.sprintf "%.2f" (pct 0.99);
          (match shard_float "fsync_batch_avg" with
          | Some f -> Printf.sprintf "%.1f" f
          | None -> "-");
          (match shard_float "queue_peak" with
          | Some f -> Printf.sprintf "%.0f" f
          | None -> "-");
        ])
    shard_levels;
  close_out oc;
  Table.print shard_table;
  Printf.printf "\nwrote %s (%d concurrency levels, %d shard levels)\n"
    serve_json_path (List.length levels)
    (List.length shard_levels)

(* ------------------------------------------------------------------ *)
(* Recover bench: WAL append cost per fsync policy, replay throughput  *)
(* ------------------------------------------------------------------ *)

(* For each fsync policy: drive a deterministic churn workload through
   a durable session, abandon it without closing (the crash), then time
   Session.recover — snapshot parse + full journal replay.  One
   JSON-lines record per policy lands in BENCH_recover.json (path
   overridable with TDMD_BENCH_RECOVER_JSON; TDMD_BENCH_RECOVER_QUICK=1
   shrinks the op count for CI smoke). *)
let recover_json_path =
  match Sys.getenv_opt "TDMD_BENCH_RECOVER_JSON" with
  | Some p -> p
  | None -> "BENCH_recover.json"

let recover_quick = Sys.getenv_opt "TDMD_BENCH_RECOVER_QUICK" <> None

let recover_bench () =
  let open Tdmd_prelude in
  let module S = Tdmd_server.Session in
  let module J = Tdmd_server.Journal in
  let n_vertices = 64 in
  let g = Tdmd_graph.Digraph.create n_vertices in
  for v = 0 to n_vertices - 2 do
    Tdmd_graph.Digraph.add_undirected g v (v + 1)
  done;
  let inst =
    Tdmd.Instance.make ~graph:g
      ~flows:[ Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1; 2 ] ]
      ~lambda:0.5
  in
  let ops = if recover_quick then 300 else 3000 in
  let temp_dir () =
    let path = Filename.temp_file "tdmd-bench-wal" "" in
    Sys.remove path;
    path
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  (* Deterministic workload: arrivals on random line segments, one
     departure every third op. *)
  let drive session =
    let rng = Rng.create 99 in
    let live = ref [] in
    for i = 1 to ops do
      let req = Printf.sprintf "bench-%d" i in
      if i mod 3 = 0 && !live <> [] then begin
        let id = List.hd !live in
        live := List.tl !live;
        match S.depart session ~req id with
        | Ok _ -> ()
        | Error (c, m) -> failwith (Printf.sprintf "bench depart: %s %s" c m)
      end
      else begin
        let a = Rng.int rng (n_vertices - 2) in
        let b = a + 1 + Rng.int rng (min 6 (n_vertices - a - 1)) in
        let path = List.init (b - a + 1) (fun j -> a + j) in
        match S.arrive session ~req ~id:i ~rate:(1 + Rng.int rng 8) ~path () with
        | Ok _ -> live := !live @ [ i ]
        | Error (c, m) -> failwith (Printf.sprintf "bench arrive: %s %s" c m)
      end
    done
  in
  let oc = open_out recover_json_path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  print_endline "== recover bench: WAL append + crash recovery ==\n";
  let table =
    Table.create
      [ "fsync"; "ops"; "append ops/s"; "journal KiB"; "recover (ms)";
        "replay ops/s"; "snapshot KiB" ]
  in
  List.iter
    (fun fsync ->
      let dir = temp_dir () in
      let cfg = S.durability ~fsync dir in
      let session =
        S.create
          ~config:
            { S.Config.default with S.Config.durability = Some cfg }
          inst
      in
      let t0 = Tdmd_obs.Clock.now_ns () in
      drive session;
      let append_s =
        Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0) /. 1e9
      in
      let journal_bytes =
        match List.assoc_opt "durability" (S.durability_stats session) with
        | Some j -> (
          match Tdmd_obs.Json.member "journal_bytes" j with
          | Some (Tdmd_obs.Json.Int b) -> b
          | _ -> 0)
        | None -> 0
      in
      (* Crash: abandon the session; its whole history is in the WAL. *)
      let t1 = Tdmd_obs.Clock.now_ns () in
      let recovered =
        match S.recover (S.durability ~fsync dir) with
        | Ok s -> s
        | Error msg -> failwith ("bench recover: " ^ msg)
      in
      let recover_s =
        Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t1) /. 1e9
      in
      let replayed =
        Tdmd_obs.Telemetry.get_count
          (S.durability_telemetry recovered)
          "wal_replayed"
      in
      if replayed <> ops then
        failwith
          (Printf.sprintf "bench recover: replayed %d of %d ops" replayed ops);
      (* Clean close writes a snapshot: its size is the compaction
         payoff. *)
      S.close recovered;
      let snapshot_bytes =
        try (Unix.stat (S.snapshot_file cfg)).Unix.st_size
        with Unix.Unix_error _ | Sys_error _ -> 0
      in
      rm_rf dir;
      let policy = J.fsync_policy_to_string fsync in
      Tdmd_obs.Sink.emit sink
        (Tdmd_obs.Json.Obj
           [
             ("event", Tdmd_obs.Json.String "bench-recover");
             ("fsync", Tdmd_obs.Json.String policy);
             ("ops", Tdmd_obs.Json.Int ops);
             ("append_seconds", Tdmd_obs.Json.Float append_s);
             ( "append_ops_per_s",
               Tdmd_obs.Json.Float (float_of_int ops /. Float.max append_s 1e-9)
             );
             ("journal_bytes", Tdmd_obs.Json.Int journal_bytes);
             ("recover_seconds", Tdmd_obs.Json.Float recover_s);
             ("replayed", Tdmd_obs.Json.Int replayed);
             ( "replay_ops_per_s",
               Tdmd_obs.Json.Float
                 (float_of_int replayed /. Float.max recover_s 1e-9) );
             ("snapshot_bytes", Tdmd_obs.Json.Int snapshot_bytes);
           ]);
      Table.add_row table
        [
          policy;
          string_of_int ops;
          Printf.sprintf "%.0f" (float_of_int ops /. Float.max append_s 1e-9);
          Printf.sprintf "%.1f" (float_of_int journal_bytes /. 1024.0);
          Printf.sprintf "%.2f" (recover_s *. 1000.0);
          Printf.sprintf "%.0f" (float_of_int replayed /. Float.max recover_s 1e-9);
          Printf.sprintf "%.1f" (float_of_int snapshot_bytes /. 1024.0);
        ])
    [ J.Never; J.Every_n 16; J.Always ];
  close_out oc;
  Table.print table;
  Printf.printf "\nwrote %s (3 fsync policies)\n" recover_json_path

(* ------------------------------------------------------------------ *)
(* Churn bench: bandwidth vs migrations across rebalance budgets       *)
(* ------------------------------------------------------------------ *)

(* One Temporal flow timeline replayed under the whole solver family:
   pin-only (migration budget 0, the historical engine), incremental-lrs
   at several finite budgets, and recompute-from-scratch GTP after every
   event as the quality ceiling.  Each variant yields one JSON-lines
   record in BENCH_churn.json (path overridable with
   TDMD_BENCH_CHURN_JSON; TDMD_BENCH_CHURN_QUICK=1 shrinks the replay
   for CI smoke) — together they trace the bandwidth-vs-migrations
   Pareto curve.  Bandwidth is sampled after every event, so the mean
   rewards staying good during churn rather than ending well. *)
let churn_json_path =
  match Sys.getenv_opt "TDMD_BENCH_CHURN_JSON" with
  | Some p -> p
  | None -> "BENCH_churn.json"

let churn_quick = Sys.getenv_opt "TDMD_BENCH_CHURN_QUICK" <> None

let churn_bench () =
  let open Tdmd_prelude in
  print_endline "== churn bench: one timeline, the whole budget family ==\n";
  let n = if churn_quick then 24 else 48 in
  let k = if churn_quick then 4 else 6 in
  let horizon = if churn_quick then 25.0 else 120.0 in
  let budgets = if churn_quick then [ 2 ] else [ 1; 2; 4; 8 ] in
  let lambda = 0.5 in
  let rng = Rng.create 4242 in
  let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.15 in
  let draw_flow rng id =
    let rec pick attempts =
      if attempts > 100 then failwith "churn bench: cannot draw a flow path"
      else begin
        let src = Rng.int rng n and dst = Rng.int rng n in
        if src = dst then pick (attempts + 1)
        else
          match Tdmd_graph.Bfs.shortest_path g ~src ~dst with
          | Some path when List.length path > 1 ->
            Tdmd_flow.Flow.make ~id ~rate:(Rng.int_in rng 1 8) ~path
          | _ -> pick (attempts + 1)
      end
    in
    pick 0
  in
  let timeline =
    Tdmd_traffic.Temporal.generate rng ~horizon ~mean_interarrival:0.5
      ~mean_lifetime:8.0 ~draw_flow
  in
  let events = List.length timeline in
  (* Replay under an (apply, sample) pair shared by every variant:
     [apply] consumes one event, [sample] reads the bandwidth of the
     deployment it left behind. *)
  let replay ~apply ~sample =
    let sum = ref 0.0 in
    let (), seconds =
      Timer.time (fun () ->
          List.iter
            (fun (_, ev) ->
              apply ev;
              sum := !sum +. sample ())
            timeline)
    in
    (!sum /. float_of_int (max 1 events), sample (), seconds)
  in
  let oc = open_out churn_json_path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  let table =
    Table.create
      [ "variant"; "budget/event"; "mean bw"; "final bw"; "moves";
        "rebalance moves"; "events/s" ]
  in
  let emit ~variant ~budget ~mean_bw ~final_bw ~moves ~rebalance_moves
      ~seconds =
    Tdmd_obs.Sink.emit sink
      (Tdmd_obs.Json.Obj
         [
           ("event", Tdmd_obs.Json.String "bench-churn");
           ("variant", Tdmd_obs.Json.String variant);
           ("budget_per_event", Tdmd_obs.Json.Int budget);
           ("vertices", Tdmd_obs.Json.Int n);
           ("k", Tdmd_obs.Json.Int k);
           ("lambda", Tdmd_obs.Json.Float lambda);
           ("events", Tdmd_obs.Json.Int events);
           ("mean_bandwidth", Tdmd_obs.Json.Float mean_bw);
           ("final_bandwidth", Tdmd_obs.Json.Float final_bw);
           ("moves", Tdmd_obs.Json.Int moves);
           ("rebalance_moves", Tdmd_obs.Json.Int rebalance_moves);
           ("seconds", Tdmd_obs.Json.Float seconds);
           ( "events_per_s",
             Tdmd_obs.Json.Float
               (float_of_int events /. Float.max seconds 1e-9) );
         ]);
    Table.add_row table
      [
        variant;
        string_of_int budget;
        Printf.sprintf "%.2f" mean_bw;
        Printf.sprintf "%.2f" final_bw;
        string_of_int moves;
        string_of_int rebalance_moves;
        Printf.sprintf "%.0f" (float_of_int events /. Float.max seconds 1e-9);
      ]
  in
  let incremental ~variant ~migration_budget =
    let t = Tdmd.Incremental.create ~migration_budget ~graph:g ~lambda ~k () in
    let apply = function
      | Tdmd_traffic.Temporal.Arrival f -> Tdmd.Incremental.arrive t f
      | Tdmd_traffic.Temporal.Departure id -> Tdmd.Incremental.depart t id
    in
    let mean_bw, final_bw, seconds =
      replay ~apply ~sample:(fun () -> Tdmd.Incremental.bandwidth t)
    in
    emit ~variant ~budget:migration_budget ~mean_bw ~final_bw
      ~moves:(Tdmd.Incremental.moves t)
      ~rebalance_moves:(Tdmd.Incremental.rebalance_moves t)
      ~seconds;
    mean_bw
  in
  let pin_mean = incremental ~variant:"pin-only" ~migration_budget:0 in
  let lrs_means =
    List.map
      (fun b ->
        incremental
          ~variant:(Printf.sprintf "incremental-lrs(%d)" b)
          ~migration_budget:b)
      budgets
  in
  (* Recompute-from-scratch ceiling: a fresh GTP after every event;
     migrations are the symmetric difference between consecutive
     deployments. *)
  let scratch_mean =
    let live = Hashtbl.create 64 in
    let order = ref [] in
    let placement = ref Tdmd.Placement.empty in
    let moves = ref 0 in
    let bw = ref 0.0 in
    let apply ev =
      (match ev with
      | Tdmd_traffic.Temporal.Arrival f ->
        Hashtbl.replace live f.Tdmd_flow.Flow.id f;
        order := f.Tdmd_flow.Flow.id :: !order
      | Tdmd_traffic.Temporal.Departure id ->
        Hashtbl.remove live id;
        order := List.filter (fun i -> i <> id) !order);
      (* [order] is newest-first, so [rev_map] restores arrival order. *)
      let flows = List.rev_map (fun id -> Hashtbl.find live id) !order in
      let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda in
      let report = Tdmd.Gtp.run ~budget:k inst in
      let next = report.Tdmd.Solver_intf.placement in
      let diff a b =
        List.length
          (List.filter
             (fun v -> not (Tdmd.Placement.mem b v))
             (Tdmd.Placement.to_list a))
      in
      moves := !moves + diff next !placement + diff !placement next;
      placement := next;
      bw := report.Tdmd.Solver_intf.bandwidth
    in
    let mean_bw, final_bw, seconds =
      replay ~apply ~sample:(fun () -> !bw)
    in
    emit ~variant:"scratch-gtp" ~budget:(2 * k) ~mean_bw ~final_bw
      ~moves:!moves ~rebalance_moves:0 ~seconds;
    mean_bw
  in
  close_out oc;
  Table.print table;
  Printf.printf "\nwrote %s (%d variants, %d events)\n" churn_json_path
    (2 + List.length budgets)
    events;
  (* The whole point of the budget family: finite budgets must not lose
     to pin-only, and the scratch ceiling bounds them below. *)
  List.iter
    (fun lrs ->
      if lrs > pin_mean +. 1e-9 then
        failwith "churn bench: a finite budget lost to pin-only")
    lrs_means;
  if scratch_mean > pin_mean +. 1e-9 then
    failwith "churn bench: scratch GTP lost to pin-only"

(* ------------------------------------------------------------------ *)
(* Portfolio bench: solution quality vs step budget                    *)
(* ------------------------------------------------------------------ *)

(* Races the anytime portfolio at a family of step budgets on one
   general instance and sweeps the rest of the registry as the
   reference, comparing on the exact-integer diminished volume.  The
   anneal schedule is budget-independent (fixed half-life), so a larger
   budget replays a smaller one's prefix and the curve must be
   monotone; the run fails loudly if it is not, or if the full-budget
   portfolio answers worse than the best reference solver.  JSON lines
   go to BENCH_portfolio.json (overridable with
   TDMD_BENCH_PORTFOLIO_JSON; TDMD_BENCH_PORTFOLIO_QUICK=1 shrinks the
   instance and budget family for CI). *)
let portfolio_json_path =
  match Sys.getenv_opt "TDMD_BENCH_PORTFOLIO_JSON" with
  | Some p -> p
  | None -> "BENCH_portfolio.json"

let portfolio_quick = Sys.getenv_opt "TDMD_BENCH_PORTFOLIO_QUICK" <> None

let portfolio_bench () =
  let open Tdmd_prelude in
  let module Pf = Tdmd_portfolio.Portfolio in
  print_endline "== portfolio bench: quality vs step budget ==\n";
  let scenario =
    if portfolio_quick then { Scenario.default_general with Scenario.size = 22 }
    else { Scenario.default_general with Scenario.size = 40 }
  in
  let k = scenario.Scenario.k in
  let inst = Scenario.build_general (Rng.create 4242) scenario in
  let budgets =
    if portfolio_quick then [ 50; 400 ] else [ 50; 200; 800; 3200; 12800 ]
  in
  let volume_of placement =
    Tdmd.Inc_oracle.diminished_volume (Tdmd.Inc_oracle.of_list inst placement)
  in
  let oc = open_out portfolio_json_path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  let base_fields =
    [
      ("vertices", Tdmd_obs.Json.Int scenario.Scenario.size);
      ("k", Tdmd_obs.Json.Int k);
      ("lambda", Tdmd_obs.Json.Float scenario.Scenario.lambda);
    ]
  in
  (* Reference sweep: every registered general solver except the
     portfolio's own members (and brute force, which cannot enumerate
     at this size). *)
  let excluded = [ "portfolio"; "anneal"; "genetic"; "brute" ] in
  let reference =
    List.filter_map
      (fun (name, solve) ->
        if List.mem name excluded then None
        else begin
          let o, seconds =
            Timer.time (fun () -> solve ~rng:(Rng.create 1000) ~k inst)
          in
          let volume =
            volume_of (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement)
          in
          Tdmd_obs.Sink.emit sink
            (Tdmd_obs.Json.Obj
               (("event", Tdmd_obs.Json.String "bench-portfolio-reference")
                :: ("solver", Tdmd_obs.Json.String name)
                :: ("volume", Tdmd_obs.Json.Int volume)
                :: ( "bandwidth",
                     Tdmd_obs.Json.Float o.Tdmd.Solver_intf.bandwidth )
                :: ("feasible", Tdmd_obs.Json.Bool o.Tdmd.Solver_intf.feasible)
                :: ("seconds", Tdmd_obs.Json.Float seconds)
                :: base_fields));
          if o.Tdmd.Solver_intf.feasible then Some (name, volume) else None
        end)
      (Tdmd.Solvers.general ())
  in
  let best_ref_name, best_ref =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      ("none", min_int) reference
  in
  let table =
    Table.create
      [ "budget"; "volume"; "bandwidth"; "member"; "improvements"; "seconds" ]
  in
  let points =
    List.map
      (fun steps ->
        let (best, improvements), seconds =
          Timer.time (fun () ->
              let t = Pf.start ~steps ~rng:(Rng.create 4242) ~k inst in
              let b = Pf.await t in
              (b, Pf.improvements t))
        in
        match best with
        | None -> failwith "portfolio bench: no feasible answer published"
        | Some b ->
          Tdmd_obs.Sink.emit sink
            (Tdmd_obs.Json.Obj
               (("event", Tdmd_obs.Json.String "bench-portfolio")
                :: ("budget_steps", Tdmd_obs.Json.Int steps)
                :: ("volume", Tdmd_obs.Json.Int b.Pf.volume)
                :: ("bandwidth", Tdmd_obs.Json.Float b.Pf.bandwidth)
                :: ("member", Tdmd_obs.Json.String b.Pf.member)
                :: ("improvements", Tdmd_obs.Json.Int improvements)
                :: ("seconds", Tdmd_obs.Json.Float seconds)
                :: base_fields));
          Table.add_row table
            [
              string_of_int steps;
              string_of_int b.Pf.volume;
              Printf.sprintf "%.2f" b.Pf.bandwidth;
              b.Pf.member;
              string_of_int improvements;
              Printf.sprintf "%.3f" seconds;
            ];
          (steps, b.Pf.volume))
      budgets
  in
  close_out oc;
  Table.print table;
  Printf.printf "\nbest reference: %s (volume %d)\nwrote %s (%d budgets, %d references)\n"
    best_ref_name best_ref portfolio_json_path (List.length budgets)
    (List.length reference);
  ignore
    (List.fold_left
       (fun prev (steps, v) ->
         if v < prev then
           failwith
             (Printf.sprintf
                "portfolio bench: volume worsened at budget %d (%d < %d)" steps
                v prev);
         v)
       min_int points);
  let _, full = List.nth points (List.length points - 1) in
  if full < best_ref then
    failwith
      (Printf.sprintf
         "portfolio bench: full budget (volume %d) lost to %s (volume %d)"
         full best_ref_name best_ref)

(* ------------------------------------------------------------------ *)
(* chaos: randomized soak of the supervised sharded server             *)
(* ------------------------------------------------------------------ *)

(* Drives thousands of mixed ops from concurrent retrying clients
   through `tdmd serve` (4 durable shards) under a seeded probabilistic
   fault schedule — shard kills mid-batch ([die@shard.apply]), kills in
   the exactly-once window ([die@shard.apply.post]), injected apply
   latency, WAL write failures — plus a vandal thread feeding the
   listener garbage frames, then verifies the failure-semantics
   invariants:

     1. no acked op lost: every acked arrive (not later departed) is in
        the final live flow set; every acked depart's flow is not;
     2. exactly once: every idempotency id appears at most once across
        the shard journals, and every acked op's id exactly once —
        retries after a mid-op kill were deduplicated, not re-applied;
     3. oracle replay: each shard's final in-memory state is
        bit-identical to a fresh fault-free session replaying that
        shard's journal (the acked timeline), and a full Engine.recover
        of the directory reproduces the live engine fingerprint.

   One JSON-lines record per seed lands in BENCH_chaos.json (path
   overridable with TDMD_BENCH_CHAOS_JSON).  TDMD_BENCH_CHAOS_QUICK=1
   shrinks to one seed for CI smoke; TDMD_CHAOS_SEED / TDMD_CHAOS_OPS
   override the seed list / per-seed op count. *)
let chaos_json_path =
  match Sys.getenv_opt "TDMD_BENCH_CHAOS_JSON" with
  | Some p -> p
  | None -> "BENCH_chaos.json"

let chaos_quick = Sys.getenv_opt "TDMD_BENCH_CHAOS_QUICK" <> None

let chaos_rm_rf root =
  let rec go dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then go p else Sys.remove p)
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  go root

(* The same substrate every engine test uses: a 24-vertex line (every
   contiguous run is a valid path) cut into 4 shards. *)
let chaos_instance () =
  let n = 24 in
  let g = Tdmd_graph.Digraph.create n in
  for v = 0 to n - 2 do
    Tdmd_graph.Digraph.add_undirected g v (v + 1)
  done;
  let inst =
    Tdmd.Instance.make ~graph:g
      ~flows:[ Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1; 2 ] ]
      ~lambda:0.5
  in
  let partition =
    Tdmd_topo.Partition.make ~seeds:[ 3; 9; 15; 21 ] g ~shards:4
  in
  (inst, partition)

(* Per-worker op log, merged after the soak for the invariant checks. *)
type chaos_worker = {
  mutable arrives_acked : (int * string) list;  (* flow, req *)
  mutable departs_acked : (int * string) list;
  mutable arrives_unknown : (int * string) list;
      (* retry budget exhausted / definitive "internal": may or may not
         have been applied *)
  mutable departs_unknown : int list;
  mutable own_live : (int * string) list;  (* acked arrivals not yet departed *)
  mutable conflicts : int;
  mutable conflict_log : (string * int * string) list;  (* kind, flow, req *)
  mutable degraded : int;
  mutable exhausted : int;
}

let chaos_seed_run ~seed ~total_ops =
  let open Tdmd_prelude in
  let module Server = Tdmd_server.Server in
  let module Client = Tdmd_server.Client in
  let module P = Tdmd_server.Protocol in
  let module Session = Tdmd_server.Session in
  let module Engine = Tdmd_server.Engine in
  let module Shard = Tdmd_server.Shard in
  let module Journal = Tdmd_server.Journal in
  let module Faults = Tdmd_server.Faults in
  let module Supervisor = Tdmd_server.Supervisor in
  let module Json = Tdmd_obs.Json in
  let inst, partition = chaos_instance () in
  let root = Filename.temp_file "tdmd-chaos" "" in
  Sys.remove root;
  let faults =
    match
      Faults.of_spec
        (Printf.sprintf
           "die@shard.apply:p=0.012;die@shard.apply.post:p=0.006;delay@shard.apply:p=0.03;fail@wal.write.fail:p=0.008;seed=%d"
           seed)
    with
    | Ok f -> f
    | Error msg -> failwith ("chaos: bad fault spec: " ^ msg)
  in
  let config =
    {
      Session.Config.default with
      Session.Config.churn_k = 2;
      Session.Config.durability =
        Some
          (Session.durability ~fsync:Journal.Always ~snapshot_every:0 ~faults
             root);
    }
  in
  let supervisor =
    Supervisor.config ~max_failures:8
      ~backoff:
        (Backoff.policy ~base:0.02 ~cap:0.1 ~max_attempts:0 ~budget:0.0 ())
      ~retry_after_ms:20 ()
  in
  let engine =
    Engine.create ~supervisor ~degraded_reads:true ~config ~shards:4 ~partition
      (Engine.General inst)
  in
  let sock = Filename.temp_file "tdmd-chaos" ".sock" in
  Sys.remove sock;
  let addr = P.Unix_sock sock in
  let server =
    Server.start
      {
        Server.addr;
        domains = 4;
        queue_capacity = 256;
        default_deadline_ms = None;
        metrics_out = None;
      }
      engine
  in
  let workers = 8 in
  let per_worker = max 1 (total_ops / workers) in
  let acked = Atomic.make 0 in
  let results =
    Array.init workers (fun _ ->
        {
          arrives_acked = [];
          departs_acked = [];
          arrives_unknown = [];
          departs_unknown = [];
          own_live = [];
          conflicts = 0;
          conflict_log = [];
          degraded = 0;
          exhausted = 0;
        })
  in
  let retry_policy =
    Backoff.policy ~base:0.005 ~cap:0.05 ~max_attempts:0 ~budget:30.0 ()
  in
  let is_acked resp = Json.member "ok" resp = Some (Json.Bool true) in
  let code_of resp =
    match Json.member "code" resp with Some (Json.String c) -> c | _ -> ""
  in
  let worker w () =
    let rng = Rng.create ((seed * 1000) + w) in
    let res = results.(w) in
    match Client.connect_retry ~policy:retry_policy ~seed:((seed * 31) + w) addr with
    | Error msg -> failwith ("chaos worker connect: " ^ msg)
    | Ok c ->
      let next_flow = ref 0 in
      for i = 0 to per_worker - 1 do
        let req = Printf.sprintf "s%d.w%d.%d" seed w i in
        let r = Rng.int rng 100 in
        let mutate kind flow request =
          match Client.rpc_retry c ~req ~policy:retry_policy request with
          | Ok resp when is_acked resp -> (
            Atomic.incr acked;
            match kind with
            | `Arrive ->
              res.arrives_acked <- (flow, req) :: res.arrives_acked;
              res.own_live <- (flow, req) :: res.own_live
            | `Depart ->
              res.departs_acked <- (flow, req) :: res.departs_acked;
              res.own_live <- List.filter (fun (f, _) -> f <> flow) res.own_live)
          | Ok resp -> (
            (* Definitive refusal.  "conflict" would mean exactly-once
               was violated (our id spaces are disjoint); "internal" is
               an injected WAL failure whose outcome is unknown. *)
            if code_of resp = "conflict" then begin
              res.conflicts <- res.conflicts + 1;
              res.conflict_log <-
                ( (match kind with `Arrive -> "arrive" | `Depart -> "depart"),
                  flow, req )
                :: res.conflict_log
            end;
            match kind with
            | `Arrive ->
              res.arrives_unknown <- (flow, req) :: res.arrives_unknown
            | `Depart ->
              res.departs_unknown <- flow :: res.departs_unknown;
              res.own_live <- List.filter (fun (f, _) -> f <> flow) res.own_live)
          | Error msg -> (
            if Client.budget_exhausted msg then
              res.exhausted <- res.exhausted + 1;
            match kind with
            | `Arrive ->
              res.arrives_unknown <- (flow, req) :: res.arrives_unknown
            | `Depart ->
              res.departs_unknown <- flow :: res.departs_unknown;
              res.own_live <- List.filter (fun (f, _) -> f <> flow) res.own_live)
        in
        if r < 40 || (r < 70 && res.own_live = []) then begin
          let flow = 1_000_000 + (w * 100_000) + !next_flow in
          incr next_flow;
          let a = Rng.int rng 23 in
          let b = min 23 (a + 1 + Rng.int rng 5) in
          let path = List.init (b - a + 1) (fun k -> a + k) in
          mutate `Arrive flow (P.Arrive { id = flow; rate = 1 + Rng.int rng 4; path })
        end
        else if r < 70 then begin
          let flow, _ =
            List.nth res.own_live (Rng.int rng (List.length res.own_live))
          in
          mutate `Depart flow (P.Depart flow)
        end
        else if r < 85 then begin
          match
            Client.rpc_retry c ~policy:retry_policy
              (P.Solve { algo = "gtp"; k = 2; seed = i; target = P.Live })
          with
          | Ok resp ->
            if is_acked resp then Atomic.incr acked;
            if Json.member "degraded" resp = Some (Json.Bool true) then
              res.degraded <- res.degraded + 1
          | Error _ -> ()
        end
        else begin
          let request = if r < 95 then P.Stats else P.Health in
          match Client.rpc_retry c ~policy:retry_policy request with
          | Ok resp ->
            if is_acked resp then Atomic.incr acked;
            if Json.member "degraded" resp = Some (Json.Bool true) then
              res.degraded <- res.degraded + 1
          | Error _ -> ()
        end
      done;
      Client.close c
  in
  (* Vandal: feeds the listener garbage and half-frames, then vanishes
     without reading — socket-level chaos the reader threads must absorb
     without disturbing anyone else's connection. *)
  let stop = Atomic.make false in
  let vandal_hits = ref 0 in
  let vandal () =
    while not (Atomic.get stop) do
      (match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
        (try
           Unix.connect fd (P.sockaddr addr);
           let junk =
             if !vandal_hits mod 2 = 0 then "\xff\xff\xff\xff\x00garbage"
             else "\x00\x00\x00\x08{\"op\":"  (* truncated frame *)
           in
           ignore (Unix.write_substring fd junk 0 (String.length junk));
           incr vandal_hits
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ()));
      Thread.delay 0.02
    done
  in
  (* Probe: polls the always-inline health RPC and measures whether the
     rest of the fleet keeps acking while some shard is recovering. *)
  let recovering_pairs = ref 0 in
  let acks_during_recovery = ref 0 in
  let recovering_polls = ref 0 in
  let probe () =
    match Client.connect_retry ~policy:retry_policy addr with
    | Error _ -> ()
    | Ok c ->
      let prev_recovering = ref false in
      let prev_acked = ref (Atomic.get acked) in
      while not (Atomic.get stop) do
        (match Client.rpc_retry c ~policy:retry_policy P.Health with
        | Ok resp ->
          let recovering =
            match Json.member "shards" resp with
            | Some (Json.List shards) ->
              List.exists
                (fun s ->
                  Json.member "state" s = Some (Json.String "recovering"))
                shards
            | _ -> false
          in
          let now = Atomic.get acked in
          if recovering then incr recovering_polls;
          if recovering && !prev_recovering then begin
            incr recovering_pairs;
            acks_during_recovery := !acks_during_recovery + (now - !prev_acked)
          end;
          prev_recovering := recovering;
          prev_acked := now
        | Error _ -> ());
        Thread.delay 0.004
      done;
      Client.close c
  in
  let t0 = Tdmd_obs.Clock.now_ns () in
  let vandal_t = Thread.create vandal () in
  let probe_t = Thread.create probe () in
  let threads = List.init workers (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  Atomic.set stop true;
  Thread.join vandal_t;
  Thread.join probe_t;
  Server.request_stop server;
  Server.wait server;
  let wall = Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0) /. 1e9 in
  (* Let in-flight recoveries finish before reading the final state. *)
  let sup = Engine.supervisor engine in
  let deadline = Unix.gettimeofday () +. 15.0 in
  while
    (not
       (Array.for_all
          (fun h -> h.Supervisor.state <> Supervisor.Recovering)
          (Supervisor.health sup)))
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  let health = Supervisor.health sup in
  Array.iteri
    (fun i h ->
      if h.Supervisor.state <> Supervisor.Serving then
        failwith
          (Printf.sprintf "chaos seed %d: shard %d finished %s" seed i
             (Supervisor.state_to_string h.Supervisor.state)))
    health;
  let restarts =
    Array.fold_left (fun acc h -> acc + h.Supervisor.restarts) 0 health
  in
  let trips =
    Array.fold_left (fun acc h -> acc + h.Supervisor.breaker_trips) 0 health
  in
  if trips > 0 then
    failwith (Printf.sprintf "chaos seed %d: circuit breaker tripped" seed);
  (* ---- gather the op log ---- *)
  let conflicts = Array.fold_left (fun a r -> a + r.conflicts) 0 results in
  let arrives_acked =
    Array.to_list results |> List.concat_map (fun r -> r.arrives_acked)
  in
  let departs_acked =
    Array.to_list results |> List.concat_map (fun r -> r.departs_acked)
  in
  let arrives_unknown =
    Array.to_list results |> List.concat_map (fun r -> r.arrives_unknown)
  in
  let departs_unknown =
    Array.to_list results |> List.concat_map (fun r -> r.departs_unknown)
  in
  let acked_total = Atomic.get acked in
  (* ---- invariant 1: no acked op lost ---- *)
  let live_set = Hashtbl.create 1024 in
  for i = 0 to Engine.shard_count engine - 1 do
    List.iter
      (fun (f : Tdmd_flow.Flow.t) -> Hashtbl.replace live_set f.Tdmd_flow.Flow.id ())
      (Session.live_flows (Shard.session (Engine.shard engine i)))
  done;
  let departed = Hashtbl.create 256 in
  List.iter (fun (f, _) -> Hashtbl.replace departed f ()) departs_acked;
  let depart_unknown = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace depart_unknown f ()) departs_unknown;
  List.iter
    (fun (flow, req) ->
      if Hashtbl.mem departed flow then begin
        if Hashtbl.mem live_set flow then
          failwith
            (Printf.sprintf
               "chaos seed %d: flow %d still live after an acked depart" seed
               flow)
      end
      else if not (Hashtbl.mem depart_unknown flow) then
        if not (Hashtbl.mem live_set flow) then
          failwith
            (Printf.sprintf
               "chaos seed %d: acked arrive %s (flow %d) lost — not in the \
                final live set"
               seed req flow))
    arrives_acked;
  (* No phantom flows either: everything live was at least attempted. *)
  let attempted = Hashtbl.create 1024 in
  List.iter (fun (f, _) -> Hashtbl.replace attempted f ()) arrives_acked;
  List.iter (fun (f, _) -> Hashtbl.replace attempted f ()) arrives_unknown;
  Hashtbl.iter
    (fun f () ->
      if f <> 0 && not (Hashtbl.mem attempted f) then
        failwith (Printf.sprintf "chaos seed %d: phantom live flow %d" seed f))
    live_set;
  (* ---- invariant 2: exactly once across the shard journals ---- *)
  let journal_ops_of_shard i =
    let dir = Filename.concat root (Printf.sprintf "shard-%d" i) in
    let segments =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 8
             && String.sub f 0 8 = "journal-"
             && Filename.check_suffix f ".wal")
    in
    match segments with
    | [ seg ] -> (
      match Journal.replay (Filename.concat dir seg) with
      | Ok (ops, 0) -> ops
      | Ok (_, torn) ->
        failwith
          (Printf.sprintf "chaos seed %d: shard %d journal has %d torn bytes"
             seed i torn)
      | Error msg ->
        failwith (Printf.sprintf "chaos seed %d: shard %d replay: %s" seed i msg))
    | segs ->
      failwith
        (Printf.sprintf "chaos seed %d: shard %d has %d journal segments" seed i
           (List.length segs))
  in
  let shard_ops = List.init 4 journal_ops_of_shard in
  if conflicts > 0 then begin
    Array.iter
      (fun r ->
        List.iter
          (fun (kind, flow, req) ->
            Printf.eprintf "conflict: %s flow %d req %s\n" kind flow req;
            List.iteri
              (fun i ops ->
                List.iter
                  (fun op ->
                    match op with
                    | Journal.Arrive { id; req = r; _ } when id = flow ->
                      Printf.eprintf "  shard %d journal: arrive id=%d req=%s\n"
                        i id (Option.value ~default:"-" r)
                    | Journal.Depart { flow_id; req = r } when flow_id = flow ->
                      Printf.eprintf "  shard %d journal: depart id=%d req=%s\n"
                        i flow_id (Option.value ~default:"-" r)
                    | _ -> ())
                  ops)
              shard_ops)
          r.conflict_log)
      results;
    failwith
      (Printf.sprintf
         "chaos seed %d: %d conflict replies — an op was applied twice or a \
          flow lost"
         seed conflicts)
  end;
  let req_counts = Hashtbl.create 4096 in
  let count_req = function
    | Some r ->
      Hashtbl.replace req_counts r
        (1 + Option.value ~default:0 (Hashtbl.find_opt req_counts r))
    | None -> ()
  in
  List.iter
    (List.iter (function
      | Journal.Arrive { req; _ } | Journal.Depart { req; _ }
      | Journal.Rebalance { req; _ } ->
        count_req req
      | Journal.Cross_prepare _ | Journal.Cross_done _ ->
        failwith
          (Printf.sprintf "chaos seed %d: cross record in a shard journal" seed)))
    shard_ops;
  Hashtbl.iter
    (fun r n ->
      if n > 1 then
        failwith
          (Printf.sprintf "chaos seed %d: req %s applied %d times" seed r n))
    req_counts;
  List.iter
    (fun (_, req) ->
      if Hashtbl.find_opt req_counts req <> Some 1 then
        failwith
          (Printf.sprintf "chaos seed %d: acked arrive %s not journaled" seed req))
    arrives_acked;
  List.iter
    (fun (_, req) ->
      if Hashtbl.find_opt req_counts req <> Some 1 then
        failwith
          (Printf.sprintf "chaos seed %d: acked depart %s not journaled" seed req))
    departs_acked;
  (* ---- invariant 3: bit-identical to the fault-free oracle ---- *)
  let oracle_config = { config with Session.Config.durability = None } in
  List.iteri
    (fun i ops ->
      let oracle = Session.create ~config:oracle_config inst in
      List.iter
        (fun op ->
          match Session.apply_batch oracle [ op ] with
          | [ Ok _ ] -> ()
          | [ Error (code, msg) ] ->
            failwith
              (Printf.sprintf "chaos seed %d: oracle refused a journaled op: %s %s"
                 seed code msg)
          | _ -> assert false)
        ops;
      let live =
        Json.to_string
          (Json.Obj
             (Session.churn_stats (Shard.session (Engine.shard engine i))))
      in
      let replayed = Json.to_string (Json.Obj (Session.churn_stats oracle)) in
      if live <> replayed then
        failwith
          (Printf.sprintf
             "chaos seed %d: shard %d diverged from its oracle replay\n\
              live:   %s\n\
              oracle: %s"
             seed i live replayed);
      Session.close oracle)
    shard_ops;
  (* ---- and the directory as a whole recovers to the same engine ---- *)
  let strip_timing = function
    | Ok (Json.Obj fields) ->
      Ok (Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") fields))
    | r -> r
  in
  let reply_str = function
    | Ok j -> Json.to_string j
    | Error (c, m) -> Printf.sprintf "error %s: %s" c m
  in
  let fingerprint e =
    Json.to_string (Json.Obj (Engine.churn_stats e))
    ^ "|"
    ^ reply_str
        (strip_timing (Engine.solve e ~algo:"gtp" ~k:2 ~seed:5 ~target:P.Live))
  in
  let before = fingerprint engine in
  Engine.close engine;
  (match
     Engine.recover
       (Session.durability ~fsync:Journal.Always ~snapshot_every:0 root)
   with
  | Error msg -> failwith (Printf.sprintf "chaos seed %d: recover: %s" seed msg)
  | Ok recovered ->
    let after = fingerprint recovered in
    Engine.close recovered;
    if before <> after then
      failwith
        (Printf.sprintf
           "chaos seed %d: recovered engine differs from the live one\n\
            live:      %s\n\
            recovered: %s"
           seed before after));
  chaos_rm_rf root;
  (try Sys.remove sock with Sys_error _ -> ());
  let exhausted = Array.fold_left (fun a r -> a + r.exhausted) 0 results in
  let degraded = Array.fold_left (fun a r -> a + r.degraded) 0 results in
  ( wall,
    [
      ("event", Json.String "bench-chaos");
      ("seed", Json.Int seed);
      ("ops", Json.Int (workers * per_worker));
      ("acked", Json.Int acked_total);
      ("arrives_acked", Json.Int (List.length arrives_acked));
      ("departs_acked", Json.Int (List.length departs_acked));
      ("unknown_outcomes",
       Json.Int (List.length arrives_unknown + List.length departs_unknown));
      ("retry_budget_exhausted", Json.Int exhausted);
      ("restarts", Json.Int restarts);
      ("recovering_polls", Json.Int !recovering_polls);
      ("acks_during_recovery", Json.Int !acks_during_recovery);
      ("recovering_pairs", Json.Int !recovering_pairs);
      ("degraded_answers", Json.Int degraded);
      ("vandal_frames", Json.Int !vandal_hits);
      ("wall_seconds", Json.Float wall);
    ],
    restarts,
    (!recovering_pairs, !acks_during_recovery) )

let chaos_bench () =
  let open Tdmd_prelude in
  let module Json = Tdmd_obs.Json in
  let seeds =
    match Sys.getenv_opt "TDMD_CHAOS_SEED" with
    | Some s -> [ int_of_string s ]
    | None -> if chaos_quick then [ 1 ] else [ 1; 2; 3; 4; 5 ]
  in
  let total_ops =
    match Sys.getenv_opt "TDMD_CHAOS_OPS" with
    | Some s -> int_of_string s
    | None -> if chaos_quick then 400 else 2400
  in
  print_endline "== chaos soak: supervised shards under a seeded fault schedule ==\n";
  let oc = open_out chaos_json_path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  let table =
    Table.create
      [ "seed"; "ops"; "acked"; "restarts"; "rec. acks"; "degraded"; "wall (s)" ]
  in
  let total_restarts = ref 0 in
  List.iter
    (fun seed ->
      let wall, fields, restarts, (pairs, rec_acks) =
        chaos_seed_run ~seed ~total_ops
      in
      total_restarts := !total_restarts + restarts;
      (* Healthy shards must keep answering while a peer recovers: when
         the probe caught recovery windows, acks advanced inside them. *)
      if (not chaos_quick) && pairs >= 5 && rec_acks = 0 then
        failwith
          (Printf.sprintf
             "chaos seed %d: fleet went silent during recovery (%d windows, 0 \
              acks)"
             seed pairs);
      Tdmd_obs.Sink.emit sink (Json.Obj fields);
      let get name =
        match List.assoc_opt name fields with
        | Some (Json.Int v) -> string_of_int v
        | _ -> "0"
      in
      Table.add_row table
        [
          string_of_int seed;
          get "ops";
          get "acked";
          get "restarts";
          get "acks_during_recovery";
          get "degraded_answers";
          Printf.sprintf "%.2f" wall;
        ])
    seeds;
  close_out oc;
  Table.print table;
  if (not chaos_quick) && !total_restarts = 0 then
    failwith
      "chaos: no supervised restart happened across any seed — the fault \
       schedule is not reaching the shards";
  Printf.printf "(json written to %s)\n%!" chaos_json_path

let run_all () =
  List.iter
    (fun (id, f) ->
      Printf.printf "\n";
      f ();
      ignore id)
    line_figures;
  print_newline ();
  micro ();
  print_newline ();
  solvers ();
  print_newline ();
  serve_bench ();
  print_newline ();
  recover_bench ();
  print_newline ();
  churn_bench ();
  print_newline ();
  portfolio_bench ();
  print_newline ();
  chaos_bench ();
  print_newline ();
  ablation ()

let () =
  match Sys.argv with
  | [| _ |] -> run_all ()
  | [| _; "micro" |] -> micro ()
  | [| _; "solvers" |] -> solvers ()
  | [| _; "serve" |] -> serve_bench ()
  | [| _; "recover" |] -> recover_bench ()
  | [| _; "churn-timeline" |] -> churn_bench ()
  | [| _; "portfolio" |] -> portfolio_bench ()
  | [| _; "chaos" |] -> chaos_bench ()
  | [| _; "ablation" |] -> ablation ()
  | [| _; fig |] -> (
    match List.assoc_opt fig line_figures with
    | Some f -> f ()
    | None ->
      Printf.eprintf
        "unknown target %s (expected fig8..fig17, micro, solvers, serve, recover, churn-timeline, portfolio, chaos, ablation)\n"
        fig;
      exit 1)
  | _ ->
    Printf.eprintf
      "usage: main.exe [fig8..fig17|micro|solvers|serve|recover|churn-timeline|portfolio|chaos|ablation]\n";
    exit 1
