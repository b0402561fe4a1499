(* same_record.exe COMMITTED FRESH: exits 1, naming the first
   difference, unless the two JSON-lines bench records have the same
   lines with the same fields.  Three fields are left out because a
   rerun of the same code cannot reproduce them: [seconds] and
   [events_per_s] are wall clock, and [improvements] counts the
   portfolio's published improvements, which depend on how the racing
   domains are scheduled.  bench/dune runs it on the churn-timeline
   and portfolio records, whose decisions run through the churn engine
   and the cover fix-up. *)

module Json = Tdmd_obs.Json

let unpinned = [ "seconds"; "events_per_s"; "improvements" ]

let records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.mapi (fun i line ->
         match Json.of_string line with
         | Ok (Json.Obj fields) ->
           List.filter (fun (name, _) -> not (List.mem name unpinned)) fields
         | Ok _ | Error _ ->
           Printf.eprintf "%s:%d: not a JSON object\n" path (i + 1);
           exit 1)

let field_string = function
  | Some v -> Json.to_string v
  | None -> "(absent)"

let () =
  match Sys.argv with
  | [| _; committed; fresh |] ->
    let a = records committed and b = records fresh in
    if List.length a <> List.length b then begin
      Printf.eprintf "%s: %d records, %s: %d\n" committed (List.length a) fresh
        (List.length b);
      exit 1
    end;
    List.iteri
      (fun i (x, y) ->
        let names = List.sort_uniq compare (List.map fst x @ List.map fst y) in
        List.iter
          (fun name ->
            let vx = List.assoc_opt name x and vy = List.assoc_opt name y in
            if vx <> vy then begin
              Printf.eprintf "record %d, field %s: %s has %s, %s has %s\n" (i + 1)
                name committed (field_string vx) fresh (field_string vy);
              exit 1
            end)
          names)
      (List.combine a b)
  | _ ->
    prerr_endline "usage: same_record.exe COMMITTED FRESH";
    exit 2
