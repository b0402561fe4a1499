(* Only a test calls [audit]: no bin/ or bench/ root reaches it. *)
let () = assert (Fx_ledger.Ledger.audit 1)
