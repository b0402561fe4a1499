let within t ~chosen ~budget =
  (* The longest prefix of [chosen] with at most [budget] distinct
     vertices, as its first occurrences in order: the first [budget]
     distinct vertices of [chosen].  Read off [chosen] alone, so the
     entry deployment is still there to edit. *)
  let rec firsts acc m = function
    | v :: rest when List.exists (Int.equal v) acc -> firsts acc m rest
    | v :: rest when m < budget -> firsts (v :: acc) (m + 1) rest
    | _ -> Array.of_list (List.rev acc)
  in
  let prefix = firsts [] 0 chosen in
  let m = Array.length prefix in
  (* Edit the entry deployment into the prefix: retire the deployed
     vertices outside it (there are some only when the oracle holds more
     than its share of the prefix), then deploy the missing ones. *)
  let held =
    Array.fold_left (fun c v -> if Inc_oracle.mem t v then c + 1 else c) 0 prefix
  in
  if held < Inc_oracle.size t then
    List.iter
      (fun v -> if not (Array.exists (Int.equal v) prefix) then Inc_oracle.remove t v)
      (Placement.to_list (Inc_oracle.placement t));
  Array.iter (fun v -> if not (Inc_oracle.mem t v) then Inc_oracle.add t v) prefix;
  (* Greedy covering picks on top of the oracle's deployment — the
     vertex through which the most unserved flows pass, lowest vertex on
     ties — until every flow is served or the budget is spent; most
     recent first. *)
  let rec cover ext =
    if Inc_oracle.is_feasible t || Inc_oracle.size t >= budget then ext
    else
      match Inc_oracle.argmax t Inc_oracle.Newly_served with
      | None -> ext
      | Some v ->
        Inc_oracle.add t v;
        cover (v :: ext)
  in
  (* The candidate that keeps [kept] prefix vertices, in selection
     order. *)
  let candidate kept ext = Array.to_list (Array.sub prefix 0 kept) @ List.rev ext in
  (* Keep ever-shorter prefixes (dropping the lowest-value picks first)
     until covering picks fit in the budget; if none does, the first
     candidate is the answer.  When the first candidate fails, more than
     [budget] pairwise vertex-disjoint flow paths prove that no
     deployment of at most [budget] vertices serves every flow, so every
     retry would fail too.  Each retry retires the failed attempt's
     covering picks and the latest prefix vertex, which leaves the
     shorter prefix deployed, and covers again; after the last one the
     oracle holds only its covering picks, and the fall-back swaps them
     for the first candidate. *)
  let ext = cover [] in
  if Inc_oracle.is_feasible t
     || m = 0
     || Inc_oracle.disjoint_paths t ~at_most:(budget + 1) > budget
  then candidate m ext
  else begin
    let first = candidate m ext in
    let rec retry kept ext =
      List.iter (Inc_oracle.remove t) ext;
      Inc_oracle.remove t prefix.(kept);
      let ext = cover [] in
      if Inc_oracle.is_feasible t then candidate kept ext
      else if kept = 0 then begin
        List.iter
          (fun v -> if not (List.exists (Int.equal v) first) then Inc_oracle.remove t v)
          ext;
        List.iter (fun v -> if not (Inc_oracle.mem t v) then Inc_oracle.add t v) first;
        first
      end
      else retry (kept - 1) ext
    in
    retry (m - 1) ext
  end
