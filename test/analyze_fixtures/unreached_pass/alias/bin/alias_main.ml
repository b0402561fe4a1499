module A = Fx_alias.Alias_target

let () =
  let module L = Fx_alias.Alias_target in
  print_int (A.via_alias 1 + L.via_alias 2)
