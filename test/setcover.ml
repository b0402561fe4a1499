(* Set cover: the problem TDMD feasibility reduces to and from (paper
   Theorem 1).  Universe elements are [0 .. universe-1] and each set is
   an int list.  [greedy] is the classical ln(n)-approximation (largest
   uncovered gain first, lowest index on ties; [None] when even every
   set together misses an element); [exact] is a branch-and-bound over
   bitsets for universes up to 62 elements; [decision] is the
   NP-complete question "is there a cover of at most k sets?". *)

type t = { universe : int; sets : int list array }

let make ~universe sets =
  List.iter
    (List.iter (fun e ->
         if e < 0 || e >= universe then invalid_arg "Setcover.make: element out of range"))
    sets;
  { universe; sets = Array.of_list (List.map (List.sort_uniq compare) sets) }

let full_mask t = (1 lsl t.universe) - 1

let mask_of_set t i = List.fold_left (fun m e -> m lor (1 lsl e)) 0 t.sets.(i)

let covers t chosen =
  let covered = Array.make t.universe false in
  List.iter (fun i -> List.iter (fun e -> covered.(e) <- true) t.sets.(i)) chosen;
  Array.for_all (fun c -> c) covered

let greedy t =
  if t.universe = 0 then Some []
  else begin
    let covered = Array.make t.universe false in
    let remaining = ref t.universe in
    let chosen = ref [] in
    let gain i =
      List.fold_left (fun acc e -> if covered.(e) then acc else acc + 1) 0 t.sets.(i)
    in
    let continue = ref true in
    while !remaining > 0 && !continue do
      let best = ref (-1) and best_gain = ref 0 in
      Array.iteri
        (fun i _ ->
          let g = gain i in
          if g > !best_gain then begin
            best := i;
            best_gain := g
          end)
        t.sets;
      if !best < 0 then continue := false
      else begin
        chosen := !best :: !chosen;
        List.iter
          (fun e ->
            if not covered.(e) then begin
              covered.(e) <- true;
              decr remaining
            end)
          t.sets.(!best)
      end
    done;
    if !remaining = 0 then Some (List.rev !chosen) else None
  end

let exact t =
  if t.universe > 62 then invalid_arg "Setcover.exact: universe too large";
  if t.universe = 0 then Some []
  else begin
    let n_sets = Array.length t.sets in
    let masks = Array.init n_sets (mask_of_set t) in
    let full = full_mask t in
    let best = ref None in
    let best_size = ref max_int in
    (* Branch on the lowest uncovered element: one of the sets containing
       it must be chosen.  This keeps the tree small and is exact. *)
    let rec go covered chosen size =
      if size >= !best_size then ()
      else if covered = full then begin
        best_size := size;
        best := Some (List.rev chosen)
      end
      else begin
        let uncovered = lnot covered land full in
        let e =
          let rec lowest i = if uncovered land (1 lsl i) <> 0 then i else lowest (i + 1) in
          lowest 0
        in
        for i = 0 to n_sets - 1 do
          if masks.(i) land (1 lsl e) <> 0 then
            go (covered lor masks.(i)) (i :: chosen) (size + 1)
        done
      end
    in
    go 0 [] 0;
    !best
  end

let decision t ~k =
  match exact t with Some cover -> List.length cover <= k | None -> false
