(* A bench module named like the lib one: its own [render] is the only
   caller of [Gauge.read], so the roots must come from this whole file,
   not from the bindings the collision resolves to lib's. *)
let render () = Gauge.read ()
let () = print_string (Fx_collision.Report.render (render ()))
