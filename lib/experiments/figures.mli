(** Reproductions of the paper's figures as text series.

    Figures 1 and 2 characterize the datasets (degree distributions and
    the out/in-degree-ratio CDF). Figures 3–6 are the headline result:
    for each algorithm, the scatter of execution time against the
    predictive partitioning metric, its Pearson correlation, and the
    best partitioner per dataset under each granularity. *)

val figure1 : Format.formatter -> unit
(** In-/out-degree distributions (log2-binned) per dataset. *)

val figure2 : Format.formatter -> unit
(** CDF of the out-degree/in-degree ratio per dataset, evaluated at
    fixed ratio points. *)

val correlations :
  Run.measurement list -> Run.algo -> config:string -> (string * float) list
(** Pearson correlation (as a fraction) of job time against each of the
    five metrics, over all completed (dataset, partitioner) cells of one
    configuration. log10 is applied to both axes, matching the log-log
    presentation of the paper's figures. *)

val figure_algo :
  Run.measurement list -> Run.algo -> metric:string -> Format.formatter -> unit
(** Full reproduction block for one algorithm: scatter rows, metric
    correlations per configuration, best partitioner per dataset, and
    the (i)-vs-(ii) granularity comparison. [metric] is the paper's
    predictive metric for that algorithm (CommCost, or Cut for TR). *)

val granularity_deltas :
  Run.measurement list -> Run.algo -> (string * float) list
(** Per dataset: percentage change of the best time from config (i) to
    config (ii); negative = fine grain faster. NaN when either side
    OOMed. *)
