(* Linking this module installs the plugins: [install] is reached from
   the initialiser alone. *)
let () = Plugins.install ()
