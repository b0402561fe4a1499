type scale = Linear | Log

type t = {
  lo : float;
  hi : float;
  scale : scale;
  bins : int array;
  mutable total : int;
}

let create ?(scale = Linear) ~lo ~hi ~bins () =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: empty range";
  if scale = Log && lo <= 0.0 then
    invalid_arg "Histogram.create: log scale needs lo > 0";
  { lo; hi; scale; bins = Array.make bins 0; total = 0 }

let bin_index t x =
  let n = Array.length t.bins in
  let raw =
    match t.scale with
    | Linear -> int_of_float (Float.of_int n *. ((x -. t.lo) /. (t.hi -. t.lo)))
    | Log ->
      if x <= t.lo then 0
      else
        int_of_float
          (Float.of_int n *. (Float.log (x /. t.lo) /. Float.log (t.hi /. t.lo)))
  in
  max 0 (min (n - 1) raw)

let add t x =
  t.bins.(bin_index t x) <- t.bins.(bin_index t x) + 1;
  t.total <- t.total + 1

let bin_counts t = Array.copy t.bins

let bin_edges t =
  let n = Array.length t.bins in
  match t.scale with
  | Linear ->
    let step = (t.hi -. t.lo) /. float_of_int n in
    Array.init n (fun i ->
        (t.lo +. (float_of_int i *. step), t.lo +. (float_of_int (i + 1) *. step)))
  | Log ->
    let r = Float.pow (t.hi /. t.lo) (1.0 /. float_of_int n) in
    Array.init n (fun i ->
        (t.lo *. Float.pow r (float_of_int i), t.lo *. Float.pow r (float_of_int (i + 1))))

let percentile t p =
  if t.total = 0 then nan
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let target = p *. float_of_int t.total in
    let edges = bin_edges t in
    let rec go i cum =
      if i >= Array.length t.bins then snd edges.(Array.length t.bins - 1)
      else begin
        let c = t.bins.(i) in
        let cum' = cum +. float_of_int c in
        if cum' >= target && c > 0 then begin
          let lo, hi = edges.(i) in
          let frac = if c = 0 then 0.0 else (target -. cum) /. float_of_int c in
          lo +. (Float.max 0.0 (Float.min 1.0 frac) *. (hi -. lo))
        end
        else go (i + 1) cum'
      end
    in
    go 0 0.0
  end
