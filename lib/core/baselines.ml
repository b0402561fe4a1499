open Tdmd_prelude

type report = {
  placement : Placement.t;
  bandwidth : float;
  feasible : bool;
  retries : int;
  telemetry : Tdmd_obs.Telemetry.t;
}

let report_of instance ~retries ~telemetry placement =
  Tdmd_obs.Telemetry.count telemetry "retries" retries;
  Tdmd_obs.Telemetry.count telemetry "placement_size" (Placement.size placement);
  {
    placement;
    bandwidth = Bandwidth.total instance placement;
    feasible = Allocation.is_feasible instance placement;
    retries;
    telemetry;
  }

let random rng ?(attempts = 200) ~k instance =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  let n = Instance.vertex_count instance in
  let k = min k n in
  let draw () = Placement.of_list (Rng.sample_without_replacement rng n k) in
  let placement, retries =
    Tdmd_obs.Telemetry.with_span tel "random" (fun () ->
        let rec attempt i =
          let p = draw () in
          if Allocation.is_feasible instance p then (p, i)
          else if i >= attempts then
            (* Fall back: keep a random half-prefix, then covering picks. *)
            let seed =
              Rng.sample_without_replacement rng n (max 0 (k - (k / 2)))
            in
            ( Placement.of_list
                (Cover_fixup.within (Inc_oracle.create instance) ~chosen:seed ~budget:k),
              i )
          else attempt (i + 1)
        in
        attempt 0)
  in
  report_of instance ~retries ~telemetry:tel placement

let best_effort ~k instance =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  let n = Instance.vertex_count instance in
  let chosen =
    Tdmd_obs.Telemetry.with_span tel "best-effort" (fun () ->
        let scored =
          List.map
            (fun v -> (v, Bandwidth.marginal instance Placement.empty v))
            (Listx.range 0 (n - 1))
        in
        Tdmd_obs.Telemetry.count tel "singleton_evals" (List.length scored);
        let ranked =
          List.stable_sort (fun (_, a) (_, b) -> compare b a) scored
          |> List.map fst
        in
        Cover_fixup.within (Inc_oracle.create instance) ~chosen:(Listx.take k ranked)
          ~budget:k)
  in
  report_of instance ~retries:0 ~telemetry:tel (Placement.of_list chosen)
