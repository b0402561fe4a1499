(* tdmd-cli: generate TDMD instances and solve them from the command
   line, or serve them over a socket.

     tdmd-cli solve --topology tree --size 22 -k 8 --algo dp
     tdmd-cli solve --topology general --size 30 -k 10 --algo gtp --lambda 0.2
     tdmd-cli figures fig9
     tdmd-cli dot --topology fattree --size 4 > fat.dot
     tdmd-cli serve --topology tree --size 22 --listen /tmp/tdmd.sock
     tdmd-cli client --connect /tmp/tdmd.sock --op solve --algo gtp -k 8
     tdmd-cli churn --topology general --size 30 --horizon 50 *)

open Cmdliner
open Tdmd_prelude

(* Bring the portfolio's registry entries (portfolio / anneal / genetic)
   in before any [--algo] list or validation is built. *)
let () = Tdmd_portfolio.Register.install ()

type topology = Tree | General | Fattree

let topology_conv =
  let parse = function
    | "tree" -> Ok Tree
    | "general" -> Ok General
    | "fattree" -> Ok Fattree
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print ppf t =
    Format.pp_print_string ppf
      (match t with Tree -> "tree" | General -> "general" | Fattree -> "fattree")
  in
  Arg.conv (parse, print)

(* [--algo] accepts any name in the solver registry; validation happens
   at parse time so typos fail before an instance is generated. *)
let algo_conv =
  let parse s =
    if List.mem s (Tdmd.Solvers.names ()) then Ok s
    else Error (`Msg (Tdmd.Solvers.describe_unknown ~tree_input:true s))
  in
  Arg.conv (parse, Format.pp_print_string)

(* A numeric flag's converter that refuses a value outside its range,
   so cmdliner reports a usage error naming the flag (exit 124) before
   the command runs. *)
let checked conv ~range valid =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when valid x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not %s" s range))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least n = checked Arg.int ~range:(Printf.sprintf ">= %d" n) (fun x -> x >= n)
let lambda_conv = checked Arg.float ~range:"in [0, 1]" Tdmd.Instance.valid_lambda

let positive_float =
  checked Arg.float ~range:"a finite number > 0" (fun x -> Float.is_finite x && x > 0.0)

let topology_arg =
  Arg.(value & opt topology_conv Tree & info [ "topology"; "t" ] ~doc:"tree | general | fattree")

(* [--size] of at least [least].  A fat-tree's size is its pod count,
   which must be even: checked against [--topology] once both flags are
   parsed, again as a usage error naming the flag. *)
let size_at_least least =
  let sized topology size =
    match topology with
    | Fattree when size mod 2 <> 0 ->
      `Error
        (true, Printf.sprintf "option '--size': %d is not an even pod count (--topology fattree)" size)
    | Tree | General | Fattree -> `Ok size
  in
  let size =
    Arg.(
      value & opt (at_least least) 22
      & info [ "size"; "n" ] ~doc:"Topology size (fat-tree: pod count k, must be even)")
  in
  Term.(ret (const sized $ topology_arg $ size))

let size_arg = size_at_least 1
let k_arg = Arg.(value & opt int 8 & info [ "k"; "budget" ] ~doc:"Middlebox budget")
let lambda_arg = Arg.(value & opt lambda_conv 0.5 & info [ "lambda" ] ~doc:"Traffic-changing ratio in [0,1]")
let density_arg = Arg.(value & opt float 0.5 & info [ "density" ] ~doc:"Flow density")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed")
let algo_arg =
  Arg.(
    value
    & opt algo_conv "gtp"
    & info [ "algo"; "a" ] ~doc:(String.concat " | " (Tdmd.Solvers.names ())))

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print the solver's span tree and telemetry metrics")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Append the run's telemetry as one JSON line to $(docv)")

let build_instances topology ~size ~lambda ~density ~seed =
  let rng = Rng.create seed in
  match topology with
  | Tree ->
    let scenario =
      { Tdmd_sim.Scenario.default_tree with Tdmd_sim.Scenario.size; lambda; density }
    in
    let inst = Tdmd_sim.Scenario.build_tree rng scenario in
    (Some inst, Tdmd.Instance.Tree.to_general inst)
  | General ->
    let scenario =
      { Tdmd_sim.Scenario.default_general with Tdmd_sim.Scenario.size; lambda; density }
    in
    (None, Tdmd_sim.Scenario.build_general rng scenario)
  | Fattree ->
    let ft = Tdmd_topo.Datacenter.fat_tree size in
    let g = ft.Tdmd_topo.Datacenter.graph in
    let hosts = ft.Tdmd_topo.Datacenter.hosts in
    let collector = List.hd hosts in
    let flows =
      List.filteri (fun i _ -> i > 0) hosts
      |> List.mapi (fun id host ->
             match Tdmd_graph.Bfs.shortest_path g ~src:host ~dst:collector with
             | None -> assert false
             | Some path -> Tdmd_flow.Flow.make ~id ~rate:(1 + Rng.int rng 8) ~path)
    in
    (None, Tdmd.Instance.make ~graph:g ~flows ~lambda)

let solve topology size k lambda density seed algo trace metrics_out =
  let tree_inst, general = build_instances topology ~size ~lambda ~density ~seed in
  let volume = float_of_int (Tdmd.Instance.total_path_volume general) in
  Printf.printf "instance: %d vertices, %d flows, unprocessed volume %g\n"
    (Tdmd.Instance.vertex_count general)
    (Tdmd.Instance.flow_count general)
    volume;
  (* Registry dispatch: tree instances resolve tree solvers first and
     lift general ones; general/fat-tree instances take general solvers
     only (tree-only algorithms have no meaning there). *)
  let rng = Rng.create (seed + 1) in
  let run =
    match tree_inst with
    | Some t -> (
      match Tdmd.Solvers.on_tree algo with
      | Some f -> fun () -> f ~rng ~k t
      | None -> assert false (* algo_conv validated the name *))
    | None -> (
      match Tdmd.Solvers.find_general algo with
      | Some f -> fun () -> f ~rng ~k general
      | None ->
        (* The name parsed, so it is registered — it must be tree-only. *)
        Printf.eprintf "%s\n" (Tdmd.Solvers.describe_unknown algo);
        exit 2)
  in
  let outcome, seconds = Tdmd_obs.Clock.time run in
  let { Tdmd.Solver_intf.placement; bandwidth; feasible; telemetry; _ } = outcome in
  Format.printf "placement: %a\n" Tdmd.Placement.pp placement;
  Printf.printf "bandwidth: %g  (%.1f%% of unprocessed)\n" bandwidth
    (100.0 *. bandwidth /. Float.max volume 1.0);
  Printf.printf "feasible:  %b\n" feasible;
  Printf.printf "time:      %.3f s\n" seconds;
  if trace then Format.printf "telemetry:@.%a@." Tdmd_obs.Telemetry.pp telemetry;
  match metrics_out with
  | None -> ()
  | Some file ->
    let oc =
      try open_out_gen [ Open_append; Open_creat ] 0o644 file
      with Sys_error msg ->
        Printf.eprintf "cannot write metrics: %s\n" msg;
        exit 2
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Tdmd_obs.Sink.emit (Tdmd_obs.Sink.of_channel oc)
          (Tdmd_obs.Sink.record ~event:"solve"
             ~extra:
               [
                 ("algo", Tdmd_obs.Json.String algo);
                 ("k", Tdmd_obs.Json.Int k);
                 ("seed", Tdmd_obs.Json.Int seed);
                 ("bandwidth", Tdmd_obs.Json.Float bandwidth);
                 ("feasible", Tdmd_obs.Json.Bool feasible);
                 ("seconds", Tdmd_obs.Json.Float seconds);
               ]
             telemetry))

let figures target =
  match List.assoc_opt target Tdmd_sim.Experiments.figures with
  | Some fig -> print_string (Tdmd_sim.Report.render_figure (fig ()))
  | None ->
    Printf.eprintf "unknown figure %s\n" target;
    exit 2

let dot topology size seed =
  let rng = Rng.create seed in
  let g =
    match topology with
    | Tree -> Tdmd_tree.Rooted_tree.to_digraph (Tdmd_topo.Topo_tree.random_attachment rng size)
    | General -> Tdmd_topo.Topo_general.erdos_renyi rng size ~p:0.15
    | Fattree -> (Tdmd_topo.Datacenter.fat_tree size).Tdmd_topo.Datacenter.graph
  in
  print_string (Tdmd_graph.Digraph.to_dot g)

let stats topology size seed =
  let rng = Rng.create seed in
  let g =
    match topology with
    | Tree -> Tdmd_tree.Rooted_tree.to_digraph (Tdmd_topo.Topo_tree.random_attachment rng size)
    | General -> fst (Tdmd_topo.Ark.general_of rng (Tdmd_topo.Ark.generate rng ~n:(2 * size)) ~size)
    | Fattree -> (Tdmd_topo.Datacenter.fat_tree size).Tdmd_topo.Datacenter.graph
  in
  print_string (Tdmd_topo.Topo_stats.render (Tdmd_topo.Topo_stats.compute g))

let solve_cmd =
  let term =
    Term.(
      const solve $ topology_arg $ size_arg $ k_arg $ lambda_arg $ density_arg
      $ seed_arg $ algo_arg $ trace_arg $ metrics_out_arg)
  in
  Cmd.v (Cmd.info "solve" ~doc:"Generate an instance and place middleboxes") term

let figures_cmd =
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc:"fig9..fig17")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate one of the paper's evaluation figures")
    Term.(const figures $ target)

let svg topology size seed boxes =
  let rng = Rng.create seed in
  let boxes = List.filter_map int_of_string_opt (String.split_on_char ',' boxes) in
  match topology with
  | Tree ->
    print_string
      (Tdmd_topo.Svg_render.tree ~boxes (Tdmd_topo.Topo_tree.random_attachment rng size))
  | General ->
    let graph, dests =
      Tdmd_topo.Ark.general_of rng (Tdmd_topo.Ark.generate rng ~n:(2 * size)) ~size
    in
    print_string (Tdmd_topo.Svg_render.graph ~highlight:dests ~boxes graph)
  | Fattree ->
    print_string
      (Tdmd_topo.Svg_render.graph ~boxes
         (Tdmd_topo.Datacenter.fat_tree size).Tdmd_topo.Datacenter.graph)

let svg_cmd =
  let boxes_arg =
    Arg.(value & opt string "" & info [ "boxes" ] ~doc:"Comma-separated middlebox vertices")
  in
  Cmd.v
    (Cmd.info "svg" ~doc:"Emit a generated topology as SVG (squares = middleboxes)")
    Term.(const svg $ topology_arg $ size_arg $ seed_arg $ boxes_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print structural statistics of a generated topology")
    Term.(const stats $ topology_arg $ size_arg $ seed_arg)

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a generated topology as Graphviz DOT")
    Term.(const dot $ topology_arg $ size_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the placement service                               *)
(* ------------------------------------------------------------------ *)

let addr_conv =
  let parse s =
    match Tdmd_server.Protocol.addr_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print ppf a =
    Format.pp_print_string ppf (Tdmd_server.Protocol.addr_to_string a)
  in
  Arg.conv (parse, print)

let listen_arg =
  Arg.(
    value
    & opt addr_conv (Tdmd_server.Protocol.Unix_sock "tdmd.sock")
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Listen address: unix:PATH, tcp:HOST:PORT, or a bare socket path")

let connect_arg =
  Arg.(
    value
    & opt addr_conv (Tdmd_server.Protocol.Unix_sock "tdmd.sock")
    & info [ "connect"; "c" ] ~docv:"ADDR"
        ~doc:"Server address: unix:PATH, tcp:HOST:PORT, or a bare socket path")

let load_instance_file file =
  let contents =
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "cannot read instance: %s\n" msg;
      exit 2
  in
  match
    Result.bind
      (Tdmd_obs.Json.of_string contents)
      Tdmd_server.Protocol.instance_of_json
  with
  | Ok inst -> inst
  | Error msg ->
    Printf.eprintf "invalid instance %s: %s\n" file msg;
    exit 2

let parse_durability journal fsync snapshot_every =
  match journal with
  | None -> None
  | Some dir ->
    let fsync =
      match Tdmd_server.Journal.fsync_policy_of_string fsync with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "--fsync: %s\n" msg;
        exit 2
    in
    Some
      (Tdmd_server.Session.durability ~fsync ~snapshot_every
         ~faults:(Tdmd_server.Faults.from_env ()) dir)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Durability directory: write-ahead journal + snapshots.  If $(docv) \
           already holds a snapshot the session is recovered from it")

let fsync_arg =
  Arg.(
    value & opt string "always"
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:"Journal fsync policy: always | every-N | none")

let snapshot_every_arg =
  Arg.(
    value & opt (at_least 0) 0
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Snapshot (and truncate the journal) after every $(docv) journaled \
           ops; 0 = only at startup and shutdown")

(* A durability root already holding state — shard-0/, or a flat
   snapshot written before sharding, which recovery moves into shard-0/
   — is continued rather than started over. *)
let durability_holds_state cfg =
  Sys.file_exists (Tdmd_server.Session.snapshot_file cfg)
  || Sys.file_exists (Filename.concat cfg.Tdmd_server.Session.dir "shard-0")

let serve listen topology size lambda density seed instance_file domains queue
    deadline_ms churn_k migration_budget shards metrics_out journal fsync
    snapshot_every degraded_reads =
  let durability = parse_durability journal fsync snapshot_every in
  let config =
    {
      Tdmd_server.Session.Config.default with
      Tdmd_server.Session.Config.churn_k;
      Tdmd_server.Session.Config.migration_budget;
      Tdmd_server.Session.Config.durability;
    }
  in
  let engine =
    match durability with
    | Some cfg when durability_holds_state cfg -> (
      match Tdmd_server.Engine.recover ~degraded_reads cfg with
      | Ok e ->
        Printf.printf "tdmd serve: recovered %d shard(s) from %s\n%!"
          (Tdmd_server.Engine.shard_count e)
          cfg.Tdmd_server.Session.dir;
        e
      | Error msg ->
        Printf.eprintf "cannot recover from %s: %s\n"
          cfg.Tdmd_server.Session.dir msg;
        exit 2)
    | _ -> (
      let source =
        match instance_file with
        | Some file -> Tdmd_server.Engine.General (load_instance_file file)
        | None -> (
          let tree_inst, general =
            build_instances topology ~size ~lambda ~density ~seed
          in
          match tree_inst with
          | Some t -> Tdmd_server.Engine.Tree t
          | None -> Tdmd_server.Engine.General general)
      in
      Tdmd_server.Engine.create ~degraded_reads ~config ~shards source)
  in
  let cfg =
    {
      Tdmd_server.Server.addr = listen;
      domains;
      queue_capacity = queue;
      default_deadline_ms = deadline_ms;
      metrics_out;
    }
  in
  let server =
    try Tdmd_server.Server.start cfg engine
    with Unix.Unix_error (err, _, arg) ->
      Printf.eprintf "cannot listen on %s: %s %s\n"
        (Tdmd_server.Protocol.addr_to_string listen)
        (Unix.error_message err) arg;
      exit 2
  in
  let stop _ = Tdmd_server.Server.request_stop server in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  let inst = Tdmd_server.Engine.general engine in
  Printf.printf
    "tdmd serve: %d vertices, %d flows, lambda %g | %d shard(s), %d worker \
     domain(s), queue %d | listening on %s\n\
     %!"
    (Tdmd.Instance.vertex_count inst)
    (Tdmd.Instance.flow_count inst)
    inst.Tdmd.Instance.lambda
    (Tdmd_server.Engine.shard_count engine)
    domains queue
    (Tdmd_server.Protocol.addr_to_string listen);
  Tdmd_server.Server.wait server;
  Tdmd_server.Engine.close engine;
  print_endline "tdmd serve: drained, bye"

let serve_cmd =
  let instance_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"FILE"
          ~doc:"Serve the inline JSON instance from $(docv) instead of a generated topology")
  in
  let domains_arg =
    Arg.(value & opt (at_least 1) 2 & info [ "domains" ] ~doc:"Worker domains")
  in
  let queue_arg =
    Arg.(value & opt (at_least 1) 64 & info [ "queue" ] ~doc:"Bounded request-queue capacity")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ]
          ~doc:"Default deadline for requests that carry none (solves answer anytime within it)")
  in
  let churn_k_arg =
    Arg.(
      value & opt (at_least 1) 8
      & info [ "churn-k" ] ~doc:"Middlebox budget of the churn engine")
  in
  let migration_budget_arg =
    Arg.(
      value & opt (at_least 0) 0
      & info [ "migration-budget" ] ~docv:"B"
          ~doc:
            "Instance moves the rebalancer may spend after each churn event \
             (per shard).  0 (the default) pins placements as before; larger \
             budgets trade migrations for bandwidth.  Recovered directories \
             keep the budget recorded in their snapshot")
  in
  let shards_arg =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the topology into $(docv) shards, each with its own \
             churn engine and journal in DIR/shard-<i>/; 1 (the default) \
             answers with the single-engine reply bytes.  A DIR written \
             before sharding (snapshot.json in DIR itself) is moved into \
             DIR/shard-0/ on its first recovery")
  in
  let degraded_reads_arg =
    Arg.(
      value & flag
      & info [ "degraded-reads" ]
          ~doc:
            "While a shard is recovering, answer read-only ops (stats, live \
             solves) from the last applied state with \"degraded\": true \
             instead of refusing them \"unavailable\"")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the placement service (length-prefixed JSON over a socket)")
    Term.(
      const serve $ listen_arg $ topology_arg $ size_arg $ lambda_arg
      $ density_arg $ seed_arg $ instance_arg $ domains_arg $ queue_arg
      $ deadline_arg $ churn_k_arg $ migration_budget_arg $ shards_arg
      $ metrics_out_arg $ journal_arg $ fsync_arg $ snapshot_every_arg
      $ degraded_reads_arg)

(* ------------------------------------------------------------------ *)
(* recover: offline rebuild + compaction of a journal directory        *)
(* ------------------------------------------------------------------ *)

let recover journal fsync =
  match parse_durability journal fsync 0 with
  | None ->
    Printf.eprintf "recover: --journal DIR is required\n";
    exit 2
  | Some cfg -> (
    (* [Engine.recover] counts the shard-<i> directories (a flat
       directory written before sharding is first moved into shard-0/)
       and drops the coordinator journal an earlier build left. *)
    match Tdmd_server.Engine.recover cfg with
    | Error msg ->
      Printf.eprintf "cannot recover from %s: %s\n"
        cfg.Tdmd_server.Session.dir msg;
      exit 2
    | Ok engine ->
      let fields =
        ("op", Tdmd_obs.Json.String "recover")
        :: ( "shard_count",
             Tdmd_obs.Json.Int (Tdmd_server.Engine.shard_count engine) )
        :: Tdmd_server.Engine.churn_stats engine
        @ Tdmd_server.Engine.stats_fields engine
      in
      (* [close] writes fresh snapshots, so recover doubles as offline
         compaction: the journals are empty afterwards. *)
      Tdmd_server.Engine.close engine;
      print_endline (Tdmd_obs.Json.to_string (Tdmd_obs.Json.Obj fields)))

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild the engine from a journal directory (per shard: snapshot \
          + WAL replay), print its state (the shard count as \
          \"shard_count\", per-shard stats under \"shards\"), and compact \
          the journals.  A directory written before sharding is moved into \
          DIR/shard-0/ first; a coordinator journal (DIR/coord.wal) an \
          earlier build left is removed")
    Term.(const recover $ journal_arg $ fsync_arg)

let client connect op algo k seed on flow_id rate path ms budget deadline_ms
    req_id =
  let module P = Tdmd_server.Protocol in
  let parse_path s =
    List.filter_map int_of_string_opt (String.split_on_char ',' s)
  in
  let request =
    match op with
    | "ping" -> P.Ping
    | "stats" -> P.Stats
    | "health" -> P.Health
    | "shutdown" -> P.Shutdown
    | "sleep" -> P.Sleep ms
    | "solve" ->
      P.Solve
        {
          algo;
          k;
          seed;
          target = (if on = "live" then P.Live else P.Static);
        }
    | "arrive" -> P.Arrive { id = flow_id; rate; path = parse_path path }
    | "depart" -> P.Depart flow_id
    | "rebalance" -> P.Rebalance { budget }
    | other ->
      Printf.eprintf
        "unknown op %S (ping | stats | health | solve | arrive | depart | \
         rebalance | sleep | shutdown)\n"
        other;
      exit 2
  in
  let policy = Tdmd_prelude.Backoff.policy ~base:0.05 ~cap:0.5 ~budget:3.0 () in
  match Tdmd_server.Client.connect_retry ~policy connect with
  | Error msg ->
    Printf.eprintf "cannot connect to %s: %s\n" (P.addr_to_string connect) msg;
    exit 2
  | Ok c ->
    let result = Tdmd_server.Client.rpc_retry c ?deadline_ms ?req:req_id request in
    Tdmd_server.Client.close c;
    (match result with
    | Error msg ->
      Printf.eprintf "rpc failed: %s\n" msg;
      exit 2
    | Ok response ->
      print_endline (Tdmd_obs.Json.to_string response);
      (match Tdmd_obs.Json.member "ok" response with
      | Some (Tdmd_obs.Json.Bool true) -> ()
      | _ -> exit 1))

let client_cmd =
  let op_arg =
    Arg.(
      value & opt string "ping"
      & info [ "op" ]
          ~doc:
            "ping | stats | health | solve | arrive | depart | rebalance | \
             sleep | shutdown")
  in
  let on_arg =
    Arg.(
      value & opt string "static"
      & info [ "on" ] ~doc:"solve target: static | live")
  in
  let flow_id_arg =
    Arg.(value & opt int 0 & info [ "flow-id" ] ~doc:"Flow id for arrive/depart")
  in
  let rate_arg =
    Arg.(value & opt int 1 & info [ "rate" ] ~doc:"Flow rate for arrive")
  in
  let path_arg =
    Arg.(
      value & opt string ""
      & info [ "path" ] ~docv:"V0,V1,..."
          ~doc:"Comma-separated vertex path for arrive")
  in
  let ms_arg =
    Arg.(value & opt int 100 & info [ "ms" ] ~doc:"Milliseconds for sleep")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "move-budget" ] ~docv:"B"
          ~doc:
            "Move budget for rebalance (default: the server's configured \
             migration budget)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~doc:"Per-request deadline (a deadlined solve answers anytime)")
  in
  let req_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "req-id" ] ~docv:"ID"
          ~doc:
            "Idempotency id for arrive/depart: the server deduplicates ops it \
             has already applied under $(docv).  Mutating ops without one get \
             a generated id (retries are still safe)")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running tdmd serve and print the response")
    Term.(
      const client $ connect_arg $ op_arg $ algo_arg $ k_arg $ seed_arg $ on_arg
      $ flow_id_arg $ rate_arg $ path_arg $ ms_arg $ budget_arg $ deadline_arg
      $ req_id_arg)

(* ------------------------------------------------------------------ *)
(* churn: replay an arrival/departure trace through Incremental        *)
(* ------------------------------------------------------------------ *)

let churn topology size k migration_budget lambda density seed horizon
    interarrival lifetime trace metrics_out =
  let _, general = build_instances topology ~size ~lambda ~density ~seed in
  let graph = general.Tdmd.Instance.graph in
  let rng = Rng.create (seed + 7) in
  let timeline =
    Tdmd_traffic.Temporal.generate rng ~horizon ~mean_interarrival:interarrival
      ~mean_lifetime:lifetime
      ~draw_flow:(Tdmd_traffic.Temporal.random_flow graph)
  in
  let engine =
    Tdmd.Incremental.create ~migration_budget ~graph
      ~lambda:general.Tdmd.Instance.lambda ~k ()
  in
  let events = List.length timeline in
  let (), seconds =
    Tdmd_obs.Clock.time (fun () ->
        List.iter
          (fun (_, event) ->
            match event with
            | Tdmd_traffic.Temporal.Arrival f -> Tdmd.Incremental.arrive engine f
            | Tdmd_traffic.Temporal.Departure id -> Tdmd.Incremental.depart engine id)
          timeline)
  in
  let tel = Tdmd.Incremental.telemetry engine in
  let final_flows = List.length (Tdmd.Incremental.flows engine) in
  let bandwidth = Tdmd.Incremental.bandwidth engine in
  let volume =
    Tdmd_flow.Flow.total_path_volume (Tdmd.Incremental.flows engine)
  in
  Printf.printf "trace:      %d events over horizon %g (%d arrivals, %d departures)\n"
    events horizon
    (Tdmd_obs.Telemetry.get_count tel "arrivals")
    (Tdmd_obs.Telemetry.get_count tel "departures");
  Printf.printf "final:      %d active flows, %d/%d boxes deployed\n" final_flows
    (Tdmd.Placement.size (Tdmd.Incremental.placement engine))
    k;
  Printf.printf "bandwidth:  %g  (%.1f%% of unprocessed)\n" bandwidth
    (100.0 *. bandwidth /. Float.max (float_of_int volume) 1.0);
  Printf.printf "feasible:   %b\n" (Tdmd.Incremental.feasible engine);
  Printf.printf "moves:      %d  (%.2f per event)\n"
    (Tdmd.Incremental.moves engine)
    (float_of_int (Tdmd.Incremental.moves engine)
    /. Float.max 1.0 (float_of_int events));
  if migration_budget > 0 then
    Printf.printf "rebalance:  budget %d/event, %d passes, %d moves\n"
      migration_budget
      (Tdmd.Incremental.rebalances engine)
      (Tdmd.Incremental.rebalance_moves engine);
  Printf.printf "time:       %.3f s  (%.0f events/s)\n" seconds
    (float_of_int events /. Float.max seconds 1e-9);
  if trace then Format.printf "telemetry:@.%a@." Tdmd_obs.Telemetry.pp tel;
  match metrics_out with
  | None -> ()
  | Some file ->
    let oc =
      try open_out_gen [ Open_append; Open_creat ] 0o644 file
      with Sys_error msg ->
        Printf.eprintf "cannot write metrics: %s\n" msg;
        exit 2
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Tdmd_obs.Sink.emit (Tdmd_obs.Sink.of_channel oc)
          (Tdmd_obs.Sink.record ~event:"churn"
             ~extra:
               [
                 ("k", Tdmd_obs.Json.Int k);
                 ("seed", Tdmd_obs.Json.Int seed);
                 ("events", Tdmd_obs.Json.Int events);
                 ("bandwidth", Tdmd_obs.Json.Float bandwidth);
                 ("seconds", Tdmd_obs.Json.Float seconds);
               ]
             tel))

let churn_cmd =
  (* The churn engine needs a box to place. *)
  let k_arg =
    Arg.(value & opt (at_least 1) 8 & info [ "k"; "budget" ] ~doc:"Middlebox budget")
  in
  let horizon_arg =
    Arg.(value & opt positive_float 50.0 & info [ "horizon" ] ~doc:"Virtual-time horizon")
  in
  let interarrival_arg =
    Arg.(
      value & opt positive_float 1.0
      & info [ "interarrival" ] ~doc:"Mean flow inter-arrival time")
  in
  let lifetime_arg =
    Arg.(value & opt positive_float 10.0 & info [ "lifetime" ] ~doc:"Mean flow lifetime")
  in
  let migration_budget_arg =
    Arg.(
      value & opt (at_least 0) 0
      & info [ "migration-budget" ] ~docv:"B"
          ~doc:
            "Instance moves the rebalancer may spend after each event; 0 \
             (the default) pins placements as before")
  in
  (* The trace draws every flow between two distinct vertices. *)
  let size_arg = size_at_least 2 in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Replay a generated arrival/departure trace through the churn engine")
    Term.(
      const churn $ topology_arg $ size_arg $ k_arg $ migration_budget_arg
      $ lambda_arg $ density_arg $ seed_arg $ horizon_arg $ interarrival_arg
      $ lifetime_arg $ trace_arg $ metrics_out_arg)

let () =
  let info =
    Cmd.info "tdmd-cli" ~version:"1.0.0"
      ~doc:"Traffic-diminishing middlebox placement (ICPP 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            figures_cmd;
            dot_cmd;
            stats_cmd;
            svg_cmd;
            serve_cmd;
            recover_cmd;
            client_cmd;
            churn_cmd;
          ]))
