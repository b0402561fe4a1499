let () = print_int (Fx_nested.Outer.Inner.deep 3)
