module Flow = Tdmd_flow.Flow

(* Σ_f r_f · (#edges carried at the diminished rate): an integer, so
   every comparison of two deployments is exact. *)
let diminished_volume instance placement =
  let mask = Allocation.mask instance placement in
  Array.fold_left
    (fun acc f ->
      let l = Allocation.first_in mask f in
      if l > Flow.hop_count f then acc else acc + (f.Flow.rate * (Flow.hop_count f - l)))
    0 instance.Instance.flows

let diminishes lambda = 1.0 -. lambda > 0.0
let render ~lambda ~total d = float_of_int total -. ((1.0 -. lambda) *. float_of_int d)

let total instance placement =
  render ~lambda:instance.Instance.lambda
    ~total:(Instance.total_path_volume instance)
    (diminished_volume instance placement)
