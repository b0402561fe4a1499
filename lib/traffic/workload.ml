open Tdmd_prelude
module Rt = Tdmd_tree.Rooted_tree
module G = Tdmd_graph.Digraph
module Flow = Tdmd_flow.Flow

let default_link_capacity = 100

let tree_link_count tree = Rt.size tree - 1
let general_link_count g = G.edge_count g

let density ~links ?(link_capacity = default_link_capacity) flows =
  if links = 0 then 0.0
  else
    float_of_int (Flow.total_path_volume flows)
    /. float_of_int (links * link_capacity)

(* Add flows drawn by [draw] until the density target is reached.  Each
   draw yields (rate, path); paths of length 1 (src = dst) are skipped
   by the callers. *)
let fill ~target_volume ~draw =
  let rec go id volume acc =
    if volume >= target_volume then List.rev acc
    else begin
      match draw () with
      | None -> List.rev acc
      | Some (rate, path) ->
        let f = Flow.make ~id ~rate ~path in
        go (id + 1) (volume + (rate * Flow.hop_count f)) (f :: acc)
    end
  in
  go 0 0 []

let tree_flows rng tree ~rates ~density ?(link_capacity = default_link_capacity) () =
  let links = tree_link_count tree in
  if links = 0 then []
  else begin
    let target_volume =
      int_of_float (Float.ceil (density *. float_of_int (links * link_capacity)))
    in
    let leaves = Array.of_list (List.filter (fun v -> v <> Rt.root tree) (Rt.leaves tree)) in
    if Array.length leaves = 0 then []
    else begin
      let draw () =
        let leaf = Rng.choose rng leaves in
        let rate = Rate_dist.sample rates rng in
        Some (rate, Rt.path_to_root tree leaf)
      in
      fill ~target_volume ~draw
    end
  end

let general_flows rng g ~dests ~rates ~density ?(link_capacity = default_link_capacity) () =
  let links = general_link_count g in
  if links = 0 || dests = [] then []
  else begin
    let n = G.vertex_count g in
    let dest_arr = Array.of_list dests in
    let target_volume =
      int_of_float (Float.ceil (density *. float_of_int (links * link_capacity)))
    in
    (* Bail out after enough failed draws (e.g. every vertex is a
       destination) rather than looping forever. *)
    let failures = ref 0 in
    let rec draw () =
      if !failures > 100 * n then None
      else begin
        let src = Rng.int rng n in
        let dst = Rng.choose rng dest_arr in
        if src = dst then begin
          incr failures;
          draw ()
        end
        else begin
          match Tdmd_graph.Bfs.shortest_path g ~src ~dst with
          | None ->
            incr failures;
            draw ()
          | Some path ->
            failures := 0;
            Some (Rate_dist.sample rates rng, path)
        end
      end
    in
    fill ~target_volume ~draw
  end
