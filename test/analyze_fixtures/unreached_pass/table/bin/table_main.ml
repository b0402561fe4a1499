let () = Option.iter (fun f -> print_int (f 3)) (Fx_table.Dispatch.find Sys.argv.(1))
