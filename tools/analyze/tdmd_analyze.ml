(* Command-line driver for tdmd-analyze.

   Usage: tdmd_analyze --registry FILE [options] PATH...
   Same contract as tdmd-lint (shared driver in Check_kit): paths are
   walked for .ml/.mli, diagnostics print as "file:line: [rule]
   message", exit 1 on any violation, 2 on usage errors.  The whole
   file set is analyzed in one pass: the lock-order, domain-escape and
   unreached-export analyses are interprocedural, and the registry
   check needs every use site before it can call an entry orphaned. *)

let registry = ref ""

let () =
  Check_kit.main
    {
      Check_kit.name = "tdmd-analyze";
      suffixes = [ ".ml"; ".mli" ];
      rule_catalogue = Analyze_core.rule_catalogue;
      extra_spec =
        [
          ( "--registry",
            Arg.Set_string registry,
            "FILE declared op/code/fault/counter registry (one \"KIND NAME\" \
             per line); without it the registry rules are skipped" );
        ];
      analyze =
        (fun ~files ->
          Analyze_core.analyze_files
            ?registry_path:(if !registry = "" then None else Some !registry)
            files);
    }
