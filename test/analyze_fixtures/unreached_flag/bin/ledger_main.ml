let () = print_int (Fx_ledger.Ledger.post 1)
