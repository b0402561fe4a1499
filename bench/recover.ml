(* recover: WAL append cost per fsync policy, then crash recovery.

   For each policy a deterministic churn workload runs through a durable
   session on a 64-vertex line: arrivals on random segments, a departure
   every third op.  The session is then abandoned unclosed (the crash)
   and Session.recover, a snapshot parse plus a full journal replay, is
   timed; the replay must re-apply every op.  One "bench-recover" record
   per policy goes to BENCH_recover.json. *)

open Tdmd_prelude
module S = Tdmd_server.Session
module J = Tdmd_server.Journal
module Json = Tdmd_obs.Json

(* One op through [S.apply_batch], the session's one churn entry point. *)
let apply session what op =
  match S.apply_batch session [ op ] with
  | [ Ok _ ] -> ()
  | [ Error (c, m) ] -> failwith (Printf.sprintf "bench %s: %s %s" what c m)
  | _ -> failwith "bench: one reply per op"

let drive session ~n ~ops =
  let rng = Rng.create 99 in
  let live = Queue.create () in
  for i = 1 to ops do
    let req = Some (Printf.sprintf "bench-%d" i) in
    if i mod 3 = 0 && not (Queue.is_empty live) then
      apply session "depart" (J.Depart { flow_id = Queue.pop live; req })
    else begin
      let a = Rng.int rng (n - 2) in
      let b = a + 1 + Rng.int rng (min 6 (n - a - 1)) in
      let path = List.init (b - a + 1) (fun j -> a + j) in
      apply session "arrive" (J.Arrive { id = i; rate = 1 + Rng.int rng 8; path; req });
      Queue.push i live
    end
  done

let journal_bytes session =
  match List.assoc_opt "durability" (S.durability_stats session) with
  | Some j -> (
    match Json.member "journal_bytes" j with Some (Json.Int b) -> b | _ -> 0)
  | None -> 0

let run () =
  let n = 64 in
  let inst = Harness.line_instance n in
  let ops = if Harness.quick then 300 else 3000 in
  print_endline "== recover bench: WAL append + crash recovery ==\n";
  let table =
    Table.create
      [ "fsync"; "ops"; "append ops/s"; "journal KiB"; "recover (ms)";
        "replay ops/s"; "snapshot KiB" ]
  in
  let path, () =
    Harness.with_records "recover" (fun emit ->
        List.iter
          (fun fsync ->
            let dir = Harness.fresh_path "tdmd-bench-wal" in
            let cfg = S.durability ~fsync dir in
            let session =
              S.create
                ~config:{ S.Config.default with S.Config.durability = Some cfg }
                inst
            in
            let (), append_s = Tdmd_obs.Clock.time (fun () -> drive session ~n ~ops) in
            let journal_bytes = journal_bytes session in
            (* Crash: abandon the session; its whole history is in the
               WAL. *)
            let recovered, recover_s =
              Tdmd_obs.Clock.time (fun () ->
                  match S.recover (S.durability ~fsync dir) with
                  | Ok s -> s
                  | Error msg -> failwith ("bench recover: " ^ msg))
            in
            let replayed =
              Tdmd_obs.Telemetry.get_count
                (S.durability_telemetry recovered)
                "wal_replayed"
            in
            if replayed <> ops then
              failwith
                (Printf.sprintf "bench recover: replayed %d of %d ops" replayed
                   ops);
            (* Clean close writes a snapshot: its size is the compaction
               payoff. *)
            S.close recovered;
            let snapshot_bytes =
              try (Unix.stat (S.snapshot_file cfg)).Unix.st_size
              with Unix.Unix_error _ | Sys_error _ -> 0
            in
            Harness.rm_rf dir;
            let policy = J.fsync_policy_to_string fsync in
            let append_rate = float_of_int ops /. Float.max append_s 1e-9 in
            let replay_rate =
              float_of_int replayed /. Float.max recover_s 1e-9
            in
            emit
              (Json.Obj
                 [
                   ("event", Json.String "bench-recover");
                   ("fsync", Json.String policy);
                   ("ops", Json.Int ops);
                   ("append_seconds", Json.Float append_s);
                   ("append_ops_per_s", Json.Float append_rate);
                   ("journal_bytes", Json.Int journal_bytes);
                   ("recover_seconds", Json.Float recover_s);
                   ("replayed", Json.Int replayed);
                   ("replay_ops_per_s", Json.Float replay_rate);
                   ("snapshot_bytes", Json.Int snapshot_bytes);
                 ]);
            Table.add_row table
              [
                policy;
                string_of_int ops;
                Printf.sprintf "%.0f" append_rate;
                Printf.sprintf "%.1f" (float_of_int journal_bytes /. 1024.0);
                Printf.sprintf "%.2f" (recover_s *. 1000.0);
                Printf.sprintf "%.0f" replay_rate;
                Printf.sprintf "%.1f" (float_of_int snapshot_bytes /. 1024.0);
              ])
          [ J.Never; J.Every_n 16; J.Always ])
  in
  Table.print table;
  Printf.printf "\nwrote %s (3 fsync policies)\n" path
