module Locked = Tdmd_prelude.Locked
module Partition = Tdmd_topo.Partition

type decision = Local of int | Cross of { home : int }

type t = {
  partition : Partition.t;
  lock : Mutex.t;
  (* flow id -> home shard, so a depart (which carries no path) finds
     the shard its arrive landed on. *)
  flows : (int, int) Hashtbl.t;
}

let create partition =
  { partition; lock = Mutex.create (); flows = Hashtbl.create 64 }

let route_arrive t ~path =
  match Partition.ownership t.partition (Array.of_list path) with
  | Partition.Owned s -> Local s
  | Partition.Cross { home } -> Cross { home }

let assign t ~flow_id ~shard =
  Locked.with_lock t.lock (fun () -> Hashtbl.replace t.flows flow_id shard)

let release t ~flow_id =
  Locked.with_lock t.lock (fun () -> Hashtbl.remove t.flows flow_id)

let lookup t ~flow_id =
  Locked.with_lock t.lock (fun () -> Hashtbl.find_opt t.flows flow_id)

(* An unknown flow's depart lands on shard 0, which answers it as the
   same no-op the pre-shard engine did. *)
let route_depart t ~flow_id () =
  Locked.with_lock t.lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.flows flow_id))

(* After a supervised shard restart the recovered session's flow set is
   the durable truth for that shard; the routing table may have drifted
   (ops acked by the WAL whose router update died with the leader).  The
   shard's entries become exactly that set, so the table only ever
   holds live flows.  A retried depart whose flow is gone finds its
   shard through the dedup tables instead (see {!Engine.depart}). *)
let reconcile t ~shard ~flow_ids =
  Locked.with_lock t.lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ home -> if home = shard then None else Some home)
        t.flows;
      List.iter (fun flow_id -> Hashtbl.replace t.flows flow_id shard) flow_ids)
