module Locked = Tdmd_prelude.Locked

(* One churn item waiting for the current leader to commit it. *)
type item = { op : Journal.op; mutable reply : Session.reply option }

type t = {
  id : int;
  session : Session.t;
  faults : Faults.t;
  lock : Mutex.t;
  cond : Condition.t;
  pending : item Queue.t;
  mutable committing : bool;  (* a leader is draining the queue *)
  mutable batches : int;
  mutable batched_ops : int;
  mutable batch_max : int;
  mutable queue_peak : int;
}

let create ?(faults = Faults.none) ~id session =
  {
    id;
    session;
    faults;
    lock = Mutex.create ();
    cond = Condition.create ();
    pending = Queue.create ();
    committing = false;
    batches = 0;
    batched_ops = 0;
    batch_max = 0;
    queue_peak = 0;
  }

let id t = t.id
let session t = t.session

(* The leader drains the queue into {!Session.apply_batch} until it runs
   dry, applying each batch OUTSIDE the shard lock (the session has its
   own) so submitters keep enqueueing while the batch commits — that
   queue-while-committing window is where group commit finds its
   batches. *)
let run_leader t =
  let rec loop () =
    let batch =
      Locked.with_lock t.lock (fun () ->
          if Queue.is_empty t.pending then begin
            t.committing <- false;
            Condition.broadcast t.cond;
            None
          end
          else begin
            let items = List.of_seq (Queue.to_seq t.pending) in
            Queue.clear t.pending;
            Some items
          end)
    in
    match batch with
    | None -> ()
    | Some items ->
      let replies =
        try
          (* [shard.apply] fires before anything reaches the session: a
             [die] here kills the leader with the batch cleanly
             un-applied.  [shard.apply.post] fires after the batch is
             applied and durable but before any waiter is acked — the
             harshest exactly-once window, where only the journaled
             dedup ids stand between a client retry and a double
             apply. *)
          Faults.hit t.faults "shard.apply";
          let replies =
            Session.apply_batch t.session (List.map (fun i -> i.op) items)
          in
          Faults.hit t.faults "shard.apply.post";
          replies
        with e ->
          (* Faults.Crash (the process is "dying") or something
             apply_batch does not map to a reply: unblock every waiter
             before propagating, or they block forever on a leader that
             no longer exists. *)
          Locked.with_lock t.lock (fun () ->
              let fail item =
                if Option.is_none item.reply then
                  item.reply <-
                    Some
                      (Error
                         ( "unavailable",
                           "shard restarting; op may or may not be applied — \
                            retry with the same req" ))
              in
              List.iter fail items;
              Queue.iter fail t.pending;
              Queue.clear t.pending;
              t.committing <- false;
              Condition.broadcast t.cond);
          raise e
      in
      Locked.with_lock t.lock (fun () ->
          List.iter2 (fun item reply -> item.reply <- Some reply) items replies;
          t.batches <- t.batches + 1;
          let n = List.length items in
          t.batched_ops <- t.batched_ops + n;
          if n > t.batch_max then t.batch_max <- n;
          Condition.broadcast t.cond);
      loop ()
  in
  loop ()

let submit t op =
  let item = { op; reply = None } in
  let leader =
    Locked.with_lock t.lock (fun () ->
        Queue.push item t.pending;
        let depth = Queue.length t.pending in
        if depth > t.queue_peak then t.queue_peak <- depth;
        if t.committing then false
        else begin
          t.committing <- true;
          true
        end)
  in
  if leader then run_leader t;
  Locked.with_lock t.lock (fun () ->
      while Option.is_none item.reply do
        Condition.wait t.cond t.lock
      done;
      Option.get item.reply)

type stats = {
  queue_depth : int;
  queue_peak : int;
  batches : int;
  batched_ops : int;
  batch_max : int;
}

let stats t =
  Locked.with_lock t.lock (fun () ->
      {
        queue_depth = Queue.length t.pending;
        queue_peak = t.queue_peak;
        batches = t.batches;
        batched_ops = t.batched_ops;
        batch_max = t.batch_max;
      })

let close t = Session.close t.session
