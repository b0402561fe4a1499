(* Fluid link-level network simulator, the end-to-end check of Eq. 1.

   The paper computes bandwidth analytically (Eq. 1).  This substrate
   routes the flows instead: every flow pushes its rate onto each
   directed link of its path, middleboxes transform the rate in place
   at their vertex, and per-link occupancy is accumulated.  Summing
   link loads must reproduce Eq. 1 exactly, which the netsim tests check
   on random instances; the per-link view also checks the paper's
   over-provisioning assumption ("each link has enough bandwidth to
   hold all bypass flows"). *)

module Flow = Tdmd_flow.Flow

type link_load = {
  src : int;
  dst : int;
  load : float;  (* total fluid rate crossing the link *)
  flows : int list;  (* ids of flows using the link *)
}

type result = {
  links : link_load list;  (* only links carrying traffic *)
  total_bandwidth : float;  (* sum of link loads = Eq. 1's b(P, F) *)
  max_link_load : float;
  served : (int * int) list;  (* (flow id, serving vertex) *)
  unserved : int list;
}

(* All flows under the forced earliest-middlebox allocation. *)

let route instance placement =
  let lambda = instance.Tdmd.Instance.lambda in
  let loads : (int * int, float ref * int list ref) Hashtbl.t = Hashtbl.create 64 in
  let bump (u, v) amount id =
    let load, ids =
      match Hashtbl.find_opt loads (u, v) with
      | Some cell -> cell
      | None ->
        let cell = (ref 0.0, ref []) in
        Hashtbl.add loads (u, v) cell;
        cell
    in
    load := !load +. amount;
    ids := id :: !ids
  in
  let served = ref [] and unserved = ref [] in
  Array.iter
    (fun f ->
      let serving = Reference.serve placement f in
      (match serving with
      | Reference.Served_at { vertex; _ } ->
        served := (f.Flow.id, vertex) :: !served
      | Reference.Unserved -> unserved := f.Flow.id :: !unserved);
      (* Walk the path pushing the current fluid rate onto each link;
         the middlebox transforms the rate when the flow passes it. *)
      let rate = ref (float_of_int f.Flow.rate) in
      let path = f.Flow.path in
      (match serving with
      | Reference.Served_at { l = 0; _ } -> rate := lambda *. !rate
      | _ -> ());
      for i = 0 to Array.length path - 2 do
        bump (path.(i), path.(i + 1)) !rate f.Flow.id;
        (match serving with
        | Reference.Served_at { l; _ } when l = i + 1 ->
          rate := lambda *. float_of_int f.Flow.rate
        | _ -> ())
      done)
    instance.Tdmd.Instance.flows;
  let links =
    Hashtbl.fold
      (fun (src, dst) (load, ids) acc ->
        { src; dst; load = !load; flows = List.sort compare !ids } :: acc)
      loads []
    |> List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst))
  in
  {
    links;
    total_bandwidth = List.fold_left (fun acc l -> acc +. l.load) 0.0 links;
    max_link_load = List.fold_left (fun acc l -> Float.max acc l.load) 0.0 links;
    served = List.rev !served;
    unserved = List.rev !unserved;
  }

(* Per loaded link (src, dst, load/capacity), descending. *)
let link_utilisations result ~capacity =
  assert (capacity > 0.0);
  List.map (fun l -> (l.src, l.dst, l.load /. capacity)) result.links
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* Links whose load exceeds the capacity: none under the paper's
   over-provisioning assumption. *)
let congested result ~capacity =
  List.filter_map
    (fun l -> if l.load > capacity then Some (l.src, l.dst) else None)
    result.links

(* Totals plus the five hottest links. *)
let render result =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "total bandwidth: %g across %d loaded links (max %g)\n"
    result.total_bandwidth (List.length result.links) result.max_link_load;
  Printf.bprintf buf "served %d flows, unserved %d\n" (List.length result.served)
    (List.length result.unserved);
  let hottest =
    List.sort (fun a b -> compare b.load a.load) result.links
    |> Tdmd_prelude.Listx.take 5
  in
  List.iter
    (fun l ->
      Printf.bprintf buf "  %d -> %d: %g (%d flows)\n" l.src l.dst l.load
        (List.length l.flows))
    hottest;
  Buffer.contents buf
