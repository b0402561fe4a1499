let () = if Fx_init.Plugins.installed () then print_string "ready"
