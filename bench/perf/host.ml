(* Host speed.  The 2-vCPU VM the bounds were set on shares its cores:
   a fixed CPU loop there runs 1.5-1.9x slower for seconds at a time,
   and its typical speed drifts over minutes, which moves every
   wall-clock metric of a run alike.  So the harness times a fixed kernel
   on both cores next to what it measures, and reports each timing
   scaled to the kernel's nominal time: [at_nominal] divides a duration
   by [probe / nominal_s], [rate_at_nominal] multiplies a rate by it.

   The kernel lives here, in the benchmark, so no change to the served
   code can move it; it only gauges the host.  It runs while the server
   is idle (the clients are paused), on as many domains as the server
   has. *)

let domains = 2

(* Float array arithmetic with strided reads and a small hash table of
   fresh arrays: the mix of the solvers' inner loops. *)
let kernel () =
  let a = Array.init 4096 float_of_int in
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for r = 1 to 8000 do
    for i = 0 to 4095 do
      a.(i) <- (a.(i) *. 1.0000001) +. float_of_int (r land 7);
      acc := !acc +. a.((i * 17) land 4095)
    done;
    Hashtbl.replace h (r land 1023) (Array.make 16 r)
  done;
  !acc

(* The kernel's wall time on that host at its usual speed. *)
let nominal_s = 0.125

(* Seconds for [domains] copies of the kernel run at once. *)
let probe () =
  let t0 = Tdmd_obs.Clock.now_ns () in
  List.init domains (fun _ -> Domain.spawn (fun () -> ignore (Sys.opaque_identity (kernel ()))))
  |> List.iter Domain.join;
  Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0) /. 1e9

let at_nominal ~probe seconds = seconds *. nominal_s /. probe
let rate_at_nominal ~probe rate = rate *. probe /. nominal_s

(* [f ()] between two probes, with their mean. *)
let around f =
  let before = probe () in
  let x = f () in
  (x, (before +. probe ()) /. 2.0)
