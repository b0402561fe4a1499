open Tdmd_prelude

type observation = {
  bandwidth : float;
  seconds : float;
  feasible : bool;
  telemetry : Tdmd_obs.Telemetry.t;
}

type point = {
  x : float;
  bandwidth : Stats.summary;
  seconds : Stats.summary;
  infeasible_runs : int;
  metrics : (string * Stats.summary) list;
}

(* Numeric telemetry metrics of a batch of observations, summarised per
   key in first-seen order (string/bool metrics are not aggregable). *)
let metric_summaries obs =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (o : observation) ->
      List.iter
        (fun (name, v) ->
          let x =
            match v with
            | Tdmd_obs.Telemetry.Int n -> Some (float_of_int n)
            | Tdmd_obs.Telemetry.Float x -> Some x
            | _ -> None
          in
          match x with
          | None -> ()
          | Some x ->
            let w =
              match Hashtbl.find_opt table name with
              | Some w -> w
              | None ->
                let w = Stats.Welford.create () in
                Hashtbl.add table name w;
                order := name :: !order;
                w
            in
            Stats.Welford.add w x)
        (Tdmd_obs.Telemetry.metrics o.telemetry))
    obs;
  List.rev_map
    (fun name ->
      let w = Hashtbl.find table name in
      ( name,
        {
          Stats.n = Stats.Welford.count w;
          mean = Stats.Welford.mean w;
          stddev = Stats.Welford.stddev w;
          min = Stats.Welford.min w;
          max = Stats.Welford.max w;
        } ))
    !order

let repeat ~seed ~reps f ~x =
  let master = Rng.create seed in
  let obs = List.init reps (fun _ -> f (Rng.split master)) in
  let feasible = List.filter (fun (o : observation) -> o.feasible) obs in
  let summaries =
    match feasible with
    | [] ->
      (* Degenerate: report over all runs rather than an empty summary. *)
      obs
    | _ -> feasible
  in
  {
    x;
    bandwidth = Stats.summarize (List.map (fun (o : observation) -> o.bandwidth) summaries);
    seconds = Stats.summarize (List.map (fun (o : observation) -> o.seconds) summaries);
    infeasible_runs = List.length obs - List.length feasible;
    metrics = metric_summaries summaries;
  }

let measure run extract =
  let result, seconds = Tdmd_obs.Clock.time run in
  let bandwidth, feasible = extract result in
  { bandwidth; seconds; feasible; telemetry = Tdmd_obs.Telemetry.create () }

let measure_outcome run =
  let outcome, seconds = Tdmd_obs.Clock.time run in
  {
    bandwidth = outcome.Tdmd.Solver_intf.bandwidth;
    seconds;
    feasible = outcome.Tdmd.Solver_intf.feasible;
    telemetry = outcome.Tdmd.Solver_intf.telemetry;
  }

type joint_point = {
  jx : float;
  by_algo : (string * point) list;
  redraws : int;
}

let joint ~domains ~seed ~reps ~x ~build ~algos =
  let master = Rng.create seed in
  (* Pre-split one generator per repetition so the results are identical
     whether repetitions run sequentially or across domains. *)
  let rep_rngs = List.init reps (fun _ -> Rng.split master) in
  let run_rep rep_rng =
    (* Draw instances until every algorithm's plan is feasible, like the
       paper's "we choose to regenerate a traffic distribution". *)
    let rec draw tries redraws =
      let rng = Rng.split rep_rng in
      let inst = build rng in
      let obs = List.map (fun (name, f) -> (name, f inst (Rng.split rng))) algos in
      if List.for_all (fun (_, (o : observation)) -> o.feasible) obs || tries >= 20
      then (obs, redraws)
      else draw (tries + 1) (redraws + 1)
    in
    draw 0 0
  in
  let rep_results = Tdmd_prelude.Parallel.map ~domains run_rep rep_rngs in
  let acc =
    List.map (fun (name, _) -> (name, Stats.Welford.create (), Stats.Welford.create ())) algos
  in
  let observations = Hashtbl.create 8 in
  let infeasible = Hashtbl.create 8 in
  let redraws = ref 0 in
  List.iter
    (fun (obs, rep_redraws) ->
      redraws := !redraws + rep_redraws;
      List.iter2
        (fun (name, bw, sec) (name', (o : observation)) ->
          assert (name = name');
          Stats.Welford.add bw o.bandwidth;
          Stats.Welford.add sec o.seconds;
          Hashtbl.replace observations name
            (o :: Option.value ~default:[] (Hashtbl.find_opt observations name));
          if not o.feasible then
            Hashtbl.replace infeasible name
              (1 + Option.value ~default:0 (Hashtbl.find_opt infeasible name)))
        acc obs)
    rep_results;
  let summary w =
    {
      Stats.n = Stats.Welford.count w;
      mean = Stats.Welford.mean w;
      stddev = Stats.Welford.stddev w;
      min = Stats.Welford.min w;
      max = Stats.Welford.max w;
    }
  in
  {
    jx = x;
    by_algo =
      List.map
        (fun (name, bw, sec) ->
          ( name,
            {
              x;
              bandwidth = summary bw;
              seconds = summary sec;
              infeasible_runs =
                Option.value ~default:0 (Hashtbl.find_opt infeasible name);
              metrics =
                metric_summaries
                  (Option.value ~default:[] (Hashtbl.find_opt observations name));
            } ))
        acc;
    redraws = !redraws;
  }
