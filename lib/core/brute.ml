let limit = 10_000_000

(* Whether Σ_{j ≤ k} C(n, j) ≤ [limit].  C(n, j + 1) = C(n, j)·(n − j) / (j + 1)
   exactly, and the walk stops as soon as the running sum passes the
   limit, so no term is built from a value above it and nothing wraps. *)
let within_limit n k =
  let rec go sum j c =
    let sum = sum + c in
    if sum > limit then false
    else if j >= k then true
    else go sum (j + 1) (c * (n - j) / (j + 1))
  in
  go 0 0 1

let solve ~k instance =
  let n = Instance.vertex_count instance in
  let k = min k n in
  if not (within_limit n k) then invalid_arg "Brute.solve: instance too large";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "brute";
  let best = ref None in
  let count = ref 0 in
  (* Enumerate subsets of size <= k as sorted int lists. *)
  let rec enum start chosen size =
    incr count;
    let placement = Placement.of_list chosen in
    if Allocation.is_feasible instance placement then begin
      let bw = Bandwidth.total instance placement in
      match !best with
      | Some (_, best_bw) when best_bw <= bw -> ()
      | _ -> best := Some (placement, bw)
    end;
    if size < k then
      for v = start to n - 1 do
        enum (v + 1) (v :: chosen) (size + 1)
      done
  in
  enum 0 [] 0;
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "subsets" !count;
  let placement, bandwidth, feasible =
    match !best with
    | Some (placement, bandwidth) -> (placement, bandwidth, true)
    | None ->
      (Placement.empty, float_of_int (Instance.total_path_volume instance), false)
  in
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Solver_intf.outcome ~placement ~bandwidth ~feasible ~telemetry:tel
