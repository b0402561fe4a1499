module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize xs =
  let w = Welford.create () in
  List.iter (Welford.add w) xs;
  {
    n = Welford.count w;
    mean = Welford.mean w;
    stddev = Welford.stddev w;
    min = Welford.min w;
    max = Welford.max w;
  }

let percentile a p =
  assert (Array.length a > 0 && p >= 0.0 && p <= 1.0);
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then b.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (b.(lo) *. (1.0 -. frac)) +. (b.(hi) *. frac)
  end
