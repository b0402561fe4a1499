open Tdmd_prelude

type t =
  | Constant of int
  | Uniform of int * int
  | Pareto_int of { alpha : float; x_min : int; cap : int }
  | Caida_like of { r_max : int }

let clamp lo hi x = max lo (min hi x)

let sample_pareto rng ~alpha ~x_min ~cap =
  let x = Rng.pareto rng ~alpha ~x_min:(float_of_int x_min) in
  clamp x_min cap (int_of_float (Float.round x))

let sample t rng =
  match t with
  | Constant r ->
    assert (r >= 1);
    r
  | Uniform (lo, hi) ->
    assert (1 <= lo && lo <= hi);
    Rng.int_in rng lo hi
  | Pareto_int { alpha; x_min; cap } -> sample_pareto rng ~alpha ~x_min ~cap
  | Caida_like { r_max } ->
    let u = Rng.float rng 1.0 in
    if u < 0.80 then Rng.int_in rng 1 2
    else if u < 0.95 then Rng.int_in rng 3 (max 3 (r_max / 5))
    else sample_pareto rng ~alpha:1.3 ~x_min:(max 4 (r_max / 5)) ~cap:r_max

let mean t =
  match t with
  | Constant r -> float_of_int r
  | Uniform (lo, hi) -> float_of_int (lo + hi) /. 2.0
  | Pareto_int { alpha; x_min; cap } ->
    if alpha > 1.0 then
      Float.min (float_of_int cap) (alpha *. float_of_int x_min /. (alpha -. 1.0))
    else float_of_int cap /. 2.0
  | Caida_like { r_max } ->
    let mid = float_of_int (3 + max 3 (r_max / 5)) /. 2.0 in
    let tail_lo = float_of_int (max 4 (r_max / 5)) in
    let tail = Float.min (float_of_int r_max) (1.3 *. tail_lo /. 0.3) in
    (0.80 *. 1.5) +. (0.15 *. mid) +. (0.05 *. tail)
