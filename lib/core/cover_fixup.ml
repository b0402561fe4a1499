let within t ~chosen ~budget =
  let chosen = Array.of_list chosen in
  (* Candidate for a kept prefix: the prefix (first occurrences, in
     order) plus greedy covering picks — the vertex through which the
     most unserved flows pass, lowest vertex on ties.  Afterwards [t]
     holds the candidate, so the caller reads feasibility off it. *)
  let extend kept_len =
    Inc_oracle.reset t;
    let prefix = ref [] in
    for i = 0 to kept_len - 1 do
      let v = chosen.(i) in
      if not (Inc_oracle.mem t v) then begin
        Inc_oracle.add t v;
        prefix := v :: !prefix
      end
    done;
    let ext = ref [] in
    let exhausted = ref false in
    while
      (not !exhausted)
      && (not (Inc_oracle.is_feasible t))
      && Inc_oracle.size t < budget
    do
      match Inc_oracle.argmax t Inc_oracle.Newly_served with
      | None -> exhausted := true
      | Some v ->
        Inc_oracle.add t v;
        ext := v :: !ext
    done;
    List.rev_append !prefix (List.rev !ext)
  in
  (* The longest prefix of [chosen] with at most [budget] distinct
     vertices. *)
  Inc_oracle.reset t;
  let longest = ref 0 in
  while
    !longest < Array.length chosen
    && (Inc_oracle.mem t chosen.(!longest) || Inc_oracle.size t < budget)
  do
    Inc_oracle.add t chosen.(!longest);
    incr longest
  done;
  (* Keep ever-shorter prefixes (dropping the lowest-value picks first)
     until covering picks fit in the budget; if none does, the first
     candidate is the answer.  When the first candidate fails, more than
     [budget] pairwise vertex-disjoint flow paths prove that no
     deployment of at most [budget] vertices serves every flow, so every
     retry would fail too.  [t] holds the first candidate from [extend]
     until a retry, with the journal that a reset and re-add builds. *)
  let rec attempt kept_len first =
    let candidate = extend kept_len in
    if Inc_oracle.is_feasible t then candidate
    else
      match first with
      | None
        when kept_len = 0
             || Inc_oracle.disjoint_paths t ~at_most:(budget + 1) > budget ->
        candidate
      | None -> attempt (kept_len - 1) (Some candidate)
      | Some first when kept_len = 0 ->
        Inc_oracle.reset t;
        List.iter (Inc_oracle.add t) first;
        first
      | Some first -> attempt (kept_len - 1) (Some first)
  in
  attempt !longest None
