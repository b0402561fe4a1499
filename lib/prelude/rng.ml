type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function: xor-shift-multiply finaliser of the
   incremented state.  See Steele, Lea, Flood (2014). *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = bits64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform mantissa bits. *)
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (x /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t n k =
  assert (k <= n && k >= 0);
  (* Partial Fisher–Yates over an index array: O(n) setup, fine at the
     scales used here. *)
  let idx = Array.init n (fun i -> i) in
  let rec take i acc =
    if i = k then List.rev acc
    else begin
      let j = i + int t (n - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp;
      take (i + 1) (idx.(i) :: acc)
    end
  in
  take 0 []

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let exponential t mean =
  let u = float t 1.0 in
  -. mean *. log1p (-. u)

let pareto t ~alpha ~x_min =
  let u = float t 1.0 in
  x_min /. ((1.0 -. u) ** (1.0 /. alpha))
