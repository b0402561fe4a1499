let now_ns () = Monotonic_clock.now ()
