module Flow = Tdmd_flow.Flow

(* Consumption of a flow whose serving position is [l] (the path length
   for an unserved flow).  The one place the formula lives, so the
   typed and the mask-based entry points give the same bits. *)
let consumption_at ~lambda f l =
  let r = float_of_int f.Flow.rate in
  let hops = float_of_int (Flow.hop_count f) in
  if l > Flow.hop_count f then r *. hops
  else begin
    let l = float_of_int l in
    (r *. l) +. (lambda *. r *. (hops -. l))
  end

let flow_consumption ~lambda f serving =
  match serving with
  | Allocation.Unserved -> consumption_at ~lambda f (Array.length f.Flow.path)
  | Allocation.Served_at { l; _ } -> consumption_at ~lambda f l

let consumption_in ~lambda mask f = consumption_at ~lambda f (Allocation.first_in mask f)

(* Left to right over the flow array: the float sum's bits depend on
   this order, which [Incremental.bandwidth] and the differential tests
   reproduce. *)
let total instance placement =
  let lambda = instance.Instance.lambda in
  let mask = Allocation.mask instance placement in
  let acc = ref 0.0 in
  Array.iter (fun f -> acc := !acc +. consumption_in ~lambda mask f) instance.Instance.flows;
  !acc

let unprocessed_volume instance = float_of_int (Instance.total_path_volume instance)

(* Σ_f r_f · (#edges carried at the diminished rate): an integer, so
   d(P) = (1-λ)·diminished_volume with no accumulated rounding. *)
let diminished_volume instance placement =
  let mask = Allocation.mask instance placement in
  Array.fold_left
    (fun acc f ->
      let l = Allocation.first_in mask f in
      if l > Flow.hop_count f then acc else acc + (f.Flow.rate * (Flow.hop_count f - l)))
    0 instance.Instance.flows

let decrement instance placement =
  (1.0 -. instance.Instance.lambda)
  *. float_of_int (diminished_volume instance placement)

let marginal instance placement v =
  decrement instance (Placement.add placement v) -. decrement instance placement

let max_decrement instance =
  (1.0 -. instance.Instance.lambda) *. unprocessed_volume instance
