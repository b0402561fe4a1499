open Tdmd_prelude

let panel ~metric ~x_label (series : Experiments.series list) =
  let xs =
    match series with
    | [] -> []
    | s :: _ -> List.map (fun (p : Runner.point) -> p.Runner.x) s.Experiments.points
  in
  let t =
    Table.create (x_label :: List.map (fun s -> s.Experiments.algorithm) series)
  in
  List.iteri
    (fun i x ->
      let cells =
        List.map
          (fun s ->
            let p = List.nth s.Experiments.points i in
            let summary =
              match metric with
              | `Bandwidth -> p.Runner.bandwidth
              | `Time -> p.Runner.seconds
            in
            Table.cell_pm summary.Stats.mean summary.Stats.stddev)
          series
      in
      Table.add_row t (Table.cell_float x :: cells))
    xs;
  Table.to_string t

let render_result (r : Experiments.result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== %s: %s ==\n\n(a) Total bandwidth consumption\n"
       r.Experiments.fig_id r.Experiments.title);
  Buffer.add_string buf
    (panel ~metric:`Bandwidth ~x_label:r.Experiments.x_label r.Experiments.series);
  Buffer.add_string buf "\n(b) Execution time (seconds)\n";
  Buffer.add_string buf
    (panel ~metric:`Time ~x_label:r.Experiments.x_label r.Experiments.series);
  Buffer.contents buf

let render_grid (g : Experiments.grid) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "== %s: %s ==\n\nbandwidth by k (rows) x density (cols)\n"
       g.Experiments.fig_id g.Experiments.title);
  let t =
    Table.create
      ("k \\ density"
      :: List.map Table.cell_float g.Experiments.density_values)
  in
  List.iter
    (fun k ->
      let cells =
        List.map
          (fun d ->
            let _, _, v =
              List.find
                (fun (k', d', _) -> k' = k && d' = d)
                g.Experiments.cells
            in
            Table.cell_float v)
          g.Experiments.density_values
      in
      Table.add_row t (string_of_int k :: cells))
    g.Experiments.k_values;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let render_ablation rows =
  let t = Table.create [ "variant"; "metric"; "value" ] in
  List.iter
    (fun (r : Experiments.ablation_row) ->
      Table.add_row t
        [ r.Experiments.label; r.Experiments.metric; Table.cell_float r.Experiments.value ])
    rows;
  "== ablations ==\n\n" ^ Table.to_string t

let result_csv (r : Experiments.result) =
  let t =
    Table.create [ "figure"; "metric"; "x"; "algorithm"; "mean"; "stddev"; "n" ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun (p : Runner.point) ->
          let row metric (summary : Stats.summary) =
            Table.add_row t
              [
                r.Experiments.fig_id;
                metric;
                Table.cell_float p.Runner.x;
                s.Experiments.algorithm;
                Printf.sprintf "%.6g" summary.Stats.mean;
                Printf.sprintf "%.6g" summary.Stats.stddev;
                string_of_int summary.Stats.n;
              ]
          in
          row "bandwidth" p.Runner.bandwidth;
          row "seconds" p.Runner.seconds)
        s.Experiments.points)
    r.Experiments.series;
  Table.to_csv t

let render_figure = function
  | Experiments.Line r -> render_result r
  | Experiments.Grids gs -> String.concat "\n" (List.map render_grid gs)
