(** Terminal rendering of experiment results: one aligned table per
    figure panel (bandwidth and execution time), plus the 3-D grids of
    Fig. 17 and the ablation table.  Values print as "mean ± stddev",
    matching the paper's error bars. *)

val render_result : Experiments.result -> string
(** Both panels of a line figure. *)

val render_grid : Experiments.grid -> string

val render_figure : Experiments.figure -> string
(** {!render_result}, or a figure's grids one blank line apart. *)

val render_ablation : Experiments.ablation_row list -> string

val result_csv : Experiments.result -> string
(** Long-format CSV: figure, metric, x, algorithm, mean, stddev, n. *)
