(* What the bench targets share: the --quick switch, the BENCH_*.json
   record writer, temp paths, the line-graph instance, the in-process
   server fixture and the closed-loop client load. *)

open Tdmd_prelude
module Json = Tdmd_obs.Json
module Client = Tdmd_server.Client
module P = Tdmd_server.Protocol

(* The metaheuristic portfolio registers its solvers dynamically; pull
   them in so every registry sweep sees anneal/genetic/portfolio next
   to the builtins. *)
let () = Tdmd_portfolio.Register.install ()

(* `main.exe --quick TARGET`: serve, recover and chaos shrink to smoke
   size; every other target runs in full either way. *)
let quick = Array.mem "--quick" Sys.argv

(* [with_records name f] runs [f emit], where [emit] appends one JSON
   line to BENCH_<name>.json, or to BENCH_<name>.quick.json under
   --quick so a smoke run never overwrites a full-run record.  Returns
   the path written and [f]'s result. *)
let with_records name f =
  let path =
    Printf.sprintf "BENCH_%s%s.json" name (if quick then ".quick" else "")
  in
  let oc = open_out path in
  let sink = Tdmd_obs.Sink.of_channel oc in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> f (Tdmd_obs.Sink.emit sink))
  in
  (path, result)

(* A temp-dir path that nothing occupies yet. *)
let fresh_path ?(suffix = "") prefix =
  let path = Filename.temp_file prefix suffix in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A line of [n] vertices, on which every contiguous run is a valid
   path, carrying one seed flow 0-1-2 at lambda 0.5. *)
let line_instance n =
  let g = Tdmd_graph.Digraph.create n in
  for v = 0 to n - 2 do
    Tdmd_graph.Digraph.add_undirected g v (v + 1)
  done;
  Tdmd.Instance.make ~graph:g
    ~flows:[ Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1; 2 ] ]
    ~lambda:0.5

(* Serves [engine] in-process on a fresh Unix socket while [f addr]
   runs, then stops the server and waits for its drain. *)
let with_server ~domains engine f =
  let addr = P.Unix_sock (fresh_path ~suffix:".sock" "tdmd-bench") in
  let server =
    Tdmd_server.Server.start
      {
        (Tdmd_server.Server.default_config addr) with
        Tdmd_server.Server.domains;
        queue_capacity = 256;
      }
      engine
  in
  Fun.protect
    ~finally:(fun () ->
      Tdmd_server.Server.request_stop server;
      Tdmd_server.Server.wait server)
    (fun () -> f addr)

let is_ok resp = Json.member "ok" resp = Some (Json.Bool true)

type load = {
  requests : int;
  errors : int;
  wall_s : float;
  rps : float;  (** acked requests per second *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

(* [clients] OS threads, each on its own connection, send [per_client]
   requests back to back.  [client ci conn] sets up client [ci] and
   returns its step: [step r] sends request [r] and says whether it was
   acked.  Latency is measured client-side over acked requests; a
   client that cannot connect counts all its requests as errors. *)
let closed_loop addr ~clients ~per_client client =
  let ms_since t0 =
    Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0) /. 1e6
  in
  let total = clients * per_client in
  let latencies_ms = Array.make total nan in
  let errors = Array.make clients 0 in
  let t0 = Tdmd_obs.Clock.now_ns () in
  let run ci =
    match Client.connect_retry addr with
    | Error _ -> errors.(ci) <- per_client
    | Ok c ->
      let step = client ci c in
      for r = 0 to per_client - 1 do
        let s0 = Tdmd_obs.Clock.now_ns () in
        if step r then latencies_ms.((ci * per_client) + r) <- ms_since s0
        else errors.(ci) <- errors.(ci) + 1
      done;
      Client.close c
  in
  List.iter Thread.join (List.init clients (fun ci -> Thread.create run ci));
  let wall_s = ms_since t0 /. 1e3 in
  let errors = Array.fold_left ( + ) 0 errors in
  let samples =
    Array.of_list
      (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latencies_ms))
  in
  let pct p =
    if Array.length samples = 0 then nan else Stats.percentile samples p
  in
  {
    requests = total;
    errors;
    wall_s;
    rps = float_of_int (total - errors) /. Float.max wall_s 1e-9;
    p50_ms = pct 0.50;
    p95_ms = pct 0.95;
    p99_ms = pct 0.99;
  }
