open Tdmd_prelude
module Flow = Tdmd_flow.Flow

type event =
  | Arrival of Flow.t
  | Departure of int

type timeline = (float * event) list

let generate rng ~horizon ~mean_interarrival ~mean_lifetime ~draw_flow =
  assert (horizon > 0.0 && mean_interarrival > 0.0 && mean_lifetime > 0.0);
  let events = ref [] in
  let rec arrivals t id =
    let t = t +. Rng.exponential rng mean_interarrival in
    if t <= horizon then begin
      let f = draw_flow rng id in
      events := (t, Arrival f) :: !events;
      let leave = t +. Rng.exponential rng mean_lifetime in
      if leave <= horizon then events := (leave, Departure f.Flow.id) :: !events;
      arrivals t (id + 1)
    end
  in
  arrivals 0.0 0;
  (* Stable sort keeps an arrival before a same-instant departure. *)
  List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) (List.rev !events)

let random_flow ?dests graph rng id =
  let n = Tdmd_graph.Digraph.vertex_count graph in
  let rec pick attempts =
    if attempts > 100 then failwith "Temporal.random_flow: cannot draw a path";
    let src = Rng.int rng n in
    let dst = match dests with Some d -> Rng.choose rng d | None -> Rng.int rng n in
    match if src = dst then None else Tdmd_graph.Bfs.shortest_path graph ~src ~dst with
    | Some path -> Flow.make ~id ~rate:(Rng.int_in rng 1 8) ~path
    | None -> pick (attempts + 1)
  in
  pick 0
