let now_ns () = Monotonic_clock.now ()

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9)
