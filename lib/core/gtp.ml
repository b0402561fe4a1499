type picks = {
  oracle : Inc_oracle.t;
  chosen : int list;
  gains : int list;
  reads : int;
}

let picks oracle chosen gains reads =
  { oracle; chosen = List.rev chosen; gains = List.rev gains; reads }

let greedy ~k instance =
  let o = Inc_oracle.create instance in
  let n = Instance.vertex_count instance in
  let rec round chosen gains reads =
    if Inc_oracle.size o >= k then picks o chosen gains reads
    else begin
      let reads = reads + n - Inc_oracle.size o in
      match Inc_oracle.argmax o Inc_oracle.Marginal_volume with
      | None -> picks o chosen gains reads
      | Some v ->
        let gain = Inc_oracle.marginal_volume o v in
        Inc_oracle.add o v;
        round (v :: chosen) (gain :: gains) reads
    end
  in
  round [] [] 0

(* CELF (Leskovec et al., KDD 2007).  A key is the vertex's marginal when
   last read, so by submodularity (Theorem 2) an upper bound on its
   current one.  The heap holds the keys and their vertices in two int
   arrays, ordered by key descending, lower vertex on ties; vertices are
   distinct, so the order is strict and any heap pops the same sequence.
   Each round reads the top vertex's fresh marginal into its key: if it
   still comes before both children (the next key in the heap order) it
   is the round's argmax, so CELF picks exactly what [greedy] picks;
   otherwise it sinks under its fresh key.  One read per round. *)
let celf ~k instance =
  let o = Inc_oracle.create instance in
  let n = Instance.vertex_count instance in
  (* Equal keys over ascending vertices: already in heap order. *)
  let keys = Array.make n max_int and verts = Array.init n Fun.id in
  let len = ref n in
  let before i j = keys.(i) > keys.(j) || (keys.(i) = keys.(j) && verts.(i) < verts.(j)) in
  let rec sink i =
    let l = (2 * i) + 1 in
    if l < !len then begin
      let c = if l + 1 < !len && before (l + 1) l then l + 1 else l in
      if before c i then begin
        let key = keys.(i) and v = verts.(i) in
        keys.(i) <- keys.(c);
        verts.(i) <- verts.(c);
        keys.(c) <- key;
        verts.(c) <- v;
        sink c
      end
    end
  in
  let rec select chosen gains reads =
    if Inc_oracle.size o >= k || !len = 0 then picks o chosen gains reads
    else begin
      let v = verts.(0) in
      let fresh = Inc_oracle.marginal_volume o v in
      keys.(0) <- fresh;
      let reads = reads + 1 in
      if (1 < !len && before 1 0) || (2 < !len && before 2 0) then begin
        sink 0;
        select chosen gains reads
      end
      else if fresh <= 0 then picks o chosen gains reads
      else begin
        len := !len - 1;
        keys.(0) <- keys.(!len);
        verts.(0) <- verts.(!len);
        sink 0;
        Inc_oracle.add o v;
        select (v :: chosen) (fresh :: gains) reads
      end
    end
  in
  select [] [] 0

(* A greedy that already serves every flow is its own repair: the
   fix-up would keep every pick (they are distinct and within the
   budget) and add none, so its oracle is left as it stands. *)
let repaired sel ~budget =
  if Inc_oracle.is_feasible sel.oracle then sel.chosen
  else Cover_fixup.within sel.oracle ~chosen:sel.chosen ~budget

(* Every marginal the greedy phase reads is published as "oracle_calls"
   and "delta_evals" once the phase ends, and the phase's wall time as
   "oracle_ns" — no per-read counter update or clock read in the loop. *)
let run_with ~label select ?budget instance =
  let budget =
    match budget with Some k -> k | None -> Instance.vertex_count instance
  in
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" budget;
  (* Spend the whole budget: the greedy keeps deploying while any vertex
     has positive marginal decrement (bandwidth only improves), and the
     fix-up then covers any still-unserved flows. *)
  Tdmd_obs.Telemetry.with_span tel label (fun () ->
      let t0 = Tdmd_obs.Clock.now_ns () in
      let sel =
        Tdmd_obs.Telemetry.with_span tel "greedy" (fun () -> select ~k:budget instance)
      in
      let oracle_ns = Int64.sub (Tdmd_obs.Clock.now_ns ()) t0 in
      if sel.reads > 0 then Tdmd_obs.Telemetry.count tel "delta_evals" sel.reads;
      let chosen =
        Tdmd_obs.Telemetry.with_span tel "cover-fixup" (fun () -> repaired sel ~budget)
      in
      (* The oracle holds [chosen]: it answers the volume and
         feasibility without a rescan. *)
      let placement = Placement.of_list chosen in
      Tdmd_obs.Telemetry.count tel "oracle_calls" sel.reads;
      Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
      Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int oracle_ns);
      ( Solver_intf.outcome ~lambda:instance.Instance.lambda
          ~total:(Instance.total_path_volume instance) ~placement
          ~volume:(Inc_oracle.diminished_volume sel.oracle)
          ~feasible:(Inc_oracle.is_feasible sel.oracle) ~telemetry:tel,
        sel.oracle ))

let run_oracle ?budget instance = run_with ~label:"gtp" greedy ?budget instance
let run ?budget instance = fst (run_oracle ?budget instance)
let run_celf ?budget instance = fst (run_with ~label:"gtp-celf" celf ?budget instance)
