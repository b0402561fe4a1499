(* Command-line driver for tdmd-lint.

   Usage: tdmd_lint [options] PATH...
   Paths are files or directories (searched recursively for .ml/.mli
   files, skipping _build and .git).  Diagnostics print as
   "file:line: [rule] message"; the exit status is 1 when any violation
   remains, 2 on usage errors.  All flag handling lives in
   Check_kit.main, shared with tdmd-analyze. *)

let () =
  Check_kit.main
    {
      Check_kit.name = "tdmd-lint";
      suffixes = [ ".ml"; ".mli" ];
      rule_catalogue =
        List.map
          (fun r -> (Lint_core.rule_id r, Lint_core.rule_doc r))
          Lint_core.all_rules;
      extra_spec = [];
      analyze =
        (fun ~files ->
          List.concat_map
            (fun file ->
              let rules = Lint_core.rules_for_path file in
              Lint_core.lint_file ~rules file)
            files);
    }
