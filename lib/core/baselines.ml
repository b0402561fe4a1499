open Tdmd_prelude

let outcome_of instance ~retries ~telemetry ~volume ~feasible placement =
  Tdmd_obs.Telemetry.count telemetry "retries" retries;
  Tdmd_obs.Telemetry.count telemetry "placement_size" (Placement.size placement);
  Solver_intf.outcome ~lambda:instance.Instance.lambda
    ~total:(Instance.total_path_volume instance) ~placement ~volume ~feasible ~telemetry

let random rng ?(attempts = 200) ~k instance =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  let n = Instance.vertex_count instance in
  let k = Int.min k n in
  let draw () = Placement.of_list (Rng.sample_without_replacement rng n k) in
  let placement, retries =
    Tdmd_obs.Telemetry.with_span tel "random" (fun () ->
        let rec attempt i =
          let p = draw () in
          if Allocation.is_feasible instance p then (p, i)
          else if i >= attempts then
            (* Fall back: keep a random half-prefix, then covering picks. *)
            let seed =
              Rng.sample_without_replacement rng n (Int.max 0 (k - (k / 2)))
            in
            ( Placement.of_list
                (Cover_fixup.within (Inc_oracle.create instance) ~chosen:seed ~budget:k),
              i )
          else attempt (i + 1)
        in
        attempt 0)
  in
  outcome_of instance ~retries ~telemetry:tel
    ~volume:(Bandwidth.diminished_volume instance placement)
    ~feasible:(Allocation.is_feasible instance placement)
    placement

(* At λ = 1 every singleton decrement is 0, so the ranking keeps vertex
   order. *)
let best_effort ~k instance =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  let n = Instance.vertex_count instance in
  let o = Inc_oracle.create instance in
  let chosen =
    Tdmd_obs.Telemetry.with_span tel "best-effort" (fun () ->
        let diminishes = Bandwidth.diminishes instance.Instance.lambda in
        let scored =
          List.map
            (fun v -> (v, if diminishes then Inc_oracle.marginal_volume o v else 0))
            (Listx.range 0 (n - 1))
        in
        Tdmd_obs.Telemetry.count tel "singleton_evals" (List.length scored);
        let ranked =
          List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) scored |> List.map fst
        in
        Cover_fixup.within o ~chosen:(Listx.take k ranked) ~budget:k)
  in
  outcome_of instance ~retries:0 ~telemetry:tel ~volume:(Inc_oracle.diminished_volume o)
    ~feasible:(Inc_oracle.is_feasible o) (Placement.of_list chosen)
