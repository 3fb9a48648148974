(** The evaluation run matrix.

    One measurement = one (dataset, partitioner, cluster configuration,
    algorithm) cell: the static partitioning metrics of that assignment
    plus the simulated execution time of that algorithm on it. The
    matrix behind the paper's Figures 3–6 is 9 datasets x 6 partitioners
    x 2 granularities x 4 algorithms. *)

type algo = Cutfit.Advisor.algorithm =
  | Pagerank
  | Connected_components
  | Triangle_count
  | Shortest_paths

val all_algos : algo list
val algo_name : algo -> string
(** Paper abbreviation: "PR", "CC", "TR", "SSSP". *)

type measurement = {
  dataset : Cutfit_gen.Datasets.spec;
  partitioner : string;  (** partitioner name *)
  config : string;  (** cluster configuration name, "(i)" ... "(iv)" *)
  algo : algo;
  metrics : Cutfit_partition.Metrics.t;
  time_s : float;  (** simulated job time (NaN when the run OOMed) *)
  completed : bool;
  supersteps : int;
  network_s : float;
  compute_s : float;
}

type options = {
  datasets : Cutfit_gen.Datasets.spec list;
  partitioners : Cutfit_partition.Partitioner.t list;
  clusters : Cutfit_bsp.Cluster.t list;
  algos : algo list;
  cost : Cutfit_bsp.Cost_model.t;
  sssp_sources : int;  (** paper uses 5 random sources per dataset *)
  iterations : int;  (** PR/CC iteration cap; paper uses 10 *)
  progress : bool;  (** log per-cell progress to stderr *)
}

val default_options : options
(** Full paper matrix: all datasets, the six strategies, configs (i) and
    (ii), all four algorithms, 5 SSSP sources, 10 iterations. *)

val scale_of : Cutfit_gen.Datasets.spec -> Cutfit_graph.Graph.t -> float
(** Work-rescaling factor: original edge count over analogue edge
    count. *)

val sssp_sources_of : Cutfit_gen.Datasets.spec -> count:int -> Cutfit_graph.Graph.t -> int array
(** The dataset's fixed random SSSP sources (same across partitioners
    and configurations, as in the paper). *)

val run : options -> measurement list
(** Execute the matrix. Deterministic; the partitioned graph is built
    once per (dataset, partitioner, granularity) and shared across the
    algorithms. *)

val filter :
  ?algo:algo -> ?config:string -> ?dataset:string -> measurement list -> measurement list
