let recommended_domains () = min 8 (Domain.recommended_domain_count ())

exception Worker_failure of exn

let map ?(domains = 1) f xs =
  match xs with
  | [] -> []
  | _ when domains <= 1 -> List.map f xs
  | _ ->
    let tasks = Array.of_list xs in
    let n = Array.length tasks in
    let results = Array.make n None in
    let failure = Atomic.make None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Option.is_none (Atomic.get failure) then begin
          (match f tasks.(i) with
          (* tdmd-analyze: allow domain-escape — each slot is written by exactly one domain (fetch_and_add hands out distinct indices) and read only after every domain is joined *)
          | v -> results.(i) <- Some v
          | exception e ->
            (* First failure wins; a plain [set] would let a later domain's
               exception overwrite the one that actually aborted the run. *)
            ignore (Atomic.compare_and_set failure None (Some (Worker_failure e))));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      List.init (min domains n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get failure with
    | Some (Worker_failure e) -> raise e
    | Some e -> raise e
    | None -> ());
    Array.to_list (Array.map Option.get results)

module Pool = struct
  type t = {
    jobs : (unit -> unit) Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    capacity : int;
    on_error : exn -> unit;
    cancelled : bool Atomic.t;
    mutable accepting : bool;
    mutable workers : unit Domain.t list;
  }

  (* Process-wide because a server may own several pools (engine workers,
     portfolio members) and its stats endpoint wants one number. *)
  let errors = Atomic.make 0
  let job_errors () = Atomic.get errors

  let default_on_error e =
    Atomic.incr errors;
    (* tdmd-lint: allow no-direct-io — crashed jobs must leave a trace even with no telemetry sink wired up *)
    Printf.eprintf "tdmd pool: job raised %s\n%!" (Printexc.to_string e)

  let worker t () =
    let rec loop () =
      (* Drain mode: keep executing whatever is still queued, exit only
         once the queue is empty. *)
      let job =
        Locked.with_lock t.mutex (fun () ->
            while Queue.is_empty t.jobs && t.accepting do
              Condition.wait t.nonempty t.mutex
            done;
            if Queue.is_empty t.jobs then None else Some (Queue.pop t.jobs))
      in
      match job with
      | None -> ()
      | Some job ->
        (try job () with e -> t.on_error e);
        loop ()
    in
    loop ()

  let create ?(on_error = default_on_error) ~domains ~capacity () =
    if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
    if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
    let t =
      {
        jobs = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        capacity;
        on_error;
        cancelled = Atomic.make false;
        accepting = true;
        workers = [];
      }
    in
    t.workers <- List.init domains (fun _ -> Domain.spawn (worker t));
    t

  let submit t job =
    Locked.with_lock t.mutex (fun () ->
        let ok = t.accepting && Queue.length t.jobs < t.capacity in
        if ok then begin
          Queue.push job t.jobs;
          Condition.signal t.nonempty
        end;
        ok)

  let queue_depth t =
    Locked.with_lock t.mutex (fun () -> Queue.length t.jobs)

  let cancel t =
    Atomic.set t.cancelled true;
    Locked.with_lock t.mutex (fun () ->
        t.accepting <- false;
        Queue.clear t.jobs;
        Condition.broadcast t.nonempty)

  let cancelling t = Atomic.get t.cancelled

  let shutdown t =
    Locked.with_lock t.mutex (fun () ->
        t.accepting <- false;
        Condition.broadcast t.nonempty);
    List.iter Domain.join t.workers;
    t.workers <- []
end
