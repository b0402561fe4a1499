(* Order statistics shared by the run report and [compare]. *)

(* Growable float buffer: one per client and phase, so recording a
   latency never takes a lock. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0.0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
end

type t = {
  value : float;
  samples : int;  (** observations the percentile was taken over *)
  beyond : int;  (** observations strictly above its rank *)
}

(* Nearest-rank percentile [num/den] of [xs]; failed requests are
   passed in as [infinity], so they sit above every latency.  Integer
   rank arithmetic keeps p99 of 1000 samples at rank 990 exactly. *)
let percentile xs ~num ~den =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then { value = Float.nan; samples = 0; beyond = 0 }
  else begin
    let rank = max 1 (((num * n) + den - 1) / den) in
    { value = sorted.(rank - 1); samples = n; beyond = n - rank }
  end

(* A percentile is reportable only with at least ten observations
   beyond it. *)
let supported p = p.beyond >= 10

let median xs =
  let s = List.sort Float.compare xs in
  let n = List.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (method "exclusive") computes them, so a spread printed here matches
   one computed from the records with the standard library. *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median: the run-to-run
   spread the bounds in BENCHMARK.json are judged against. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
