(** One-stop analytics pipeline: partition (advised or explicit), run,
    and return results with the simulated execution trace.

    This is the API the examples and the CLI are written against:

    {[
      let g = Cutfit.Gen.Social.generate params in
      let p = Cutfit.Pipeline.prepare ~algorithm:Cutfit.Advisor.Pagerank g in
      let ranks, trace = Cutfit.Pipeline.pagerank p in
      Format.printf "%a@." Cutfit.Trace.pp_summary trace
    ]}

    To observe a run rather than just time it, attach a telemetry handle
    at {!prepare}; each runner then streams one structured event per
    superstep (plus run boundaries) to the handle's sinks:

    {[
      let t = Cutfit_obs.Telemetry.create ~sinks:[ Cutfit_obs.Sink.jsonl "trace.jsonl" ] () in
      let p = Cutfit.Pipeline.prepare ~telemetry:t ~algorithm:Cutfit.Advisor.Pagerank g in
      let _ranks, _trace = Cutfit.Pipeline.pagerank p in
      Cutfit_obs.Telemetry.close t
    ]} *)

type prepared = {
  graph : Cutfit_graph.Graph.t;
  pg : Cutfit_bsp.Pgraph.t;
  cluster : Cutfit_bsp.Cluster.t;
  partitioner : Cutfit_partition.Partitioner.t;
  scale : float;
  cost : Cutfit_bsp.Cost_model.t;  (** {!prepare} uses the default *)
  telemetry : Cutfit_obs.Telemetry.t option;
      (** threaded into every run launched from this preparation *)
  what_if : Cutfit_bsp.Pricer.what_if;
      (** the perturbations ({!Cutfit_bsp.Pricer.what_if}) every
          Pregel/GAS run launched from this preparation is priced under *)
}

val prepare :
  ?check:bool ->
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?partitioner:Cutfit_partition.Partitioner.t ->
  ?scale:float ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  algorithm:Advisor.algorithm ->
  Cutfit_graph.Graph.t ->
  prepared
(** Partition the graph for the given algorithm. Defaults: cluster
    configuration (i), the advisor's strategy, scale 1.0,
    {!Cutfit_bsp.Pricer.static}, no telemetry. Omitting [telemetry]
    keeps the zero-allocation fast path in the engines.

    [what_if] ({!Cutfit_bsp.Pricer.what_if}) is kept in the preparation.
    Triangle counting builds its stages outside the Pregel/GAS engines,
    so no field of it applies there: a TR run in a perturbed pipeline
    simply executes statically.

    With [~check:true] the assignment is validated before the build and
    the frozen {!Cutfit_bsp.Pgraph} plus its metrics are sanitized after
    it ({!Cutfit_check.Pgraph_check}, {!Cutfit_check.Metrics_check});
    any violation raises {!Cutfit_check.Violation.Violations}. Default
    [false] — the paranoid path costs an extra pass over the graph. *)

val of_pgraph :
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  partitioner:Cutfit_partition.Partitioner.t ->
  Cutfit_bsp.Pgraph.t ->
  prepared
(** Wrap an {e already-built} partitioned graph — the workload engine's
    cache-hit path, which skips the load and build phases by reusing a
    frozen {!Cutfit_bsp.Pgraph}. [partitioner] names the strategy the
    graph was built with (it is not re-applied).
    @raise Invalid_argument when the cluster's partition count disagrees
    with the graph's. *)

val metrics : prepared -> Cutfit_partition.Metrics.t
(** Partitioning metrics of the prepared graph. *)

val pagerank : ?iterations:int -> prepared -> float array * Cutfit_bsp.Trace.t
val connected_components : ?iterations:int -> prepared -> int array * Cutfit_bsp.Trace.t

val triangles : ?undirected:Cutfit_graph.Graph.t -> prepared -> int array * Cutfit_bsp.Trace.t
(** Per-vertex counts (the total is their sum over three) and trace;
    [undirected] as in {!Cutfit_algo.Triangle_count.run}. *)

val shortest_paths : landmarks:int array -> prepared -> int array array * Cutfit_bsp.Trace.t

(** {2 The algorithm table}

    The one place that picks an algorithm's code: the CLI, the
    evaluation matrix, the workload engine, {!compare_partitioners}
    and {!Sanitize} run an algorithm through its entry. *)

type 'v algo = {
  run : prepared -> 'v * Cutfit_bsp.Trace.t;  (** {!pagerank}, {!triangles}, ... *)
  price : prepared -> Cutfit_bsp.Trace.t;
      (** [run]'s trace, with the same events, for a caller that discards
          the values: PageRank's goes through
          {!Cutfit_algo.Pagerank.price}, which leaves its repeated
          supersteps unexecuted and so skips the [static_emits] guard
          that [run] keeps; the other entries run. The evaluation
          matrix, the workload engine, {!compare_partitioners}, the
          infrastructure experiment and {!Sanitize}'s determinism replay
          price; the CLI's summary line, {!oracle}, the sanitized run
          and every check that reads values run. *)
  kernel : 'v Cutfit_check.Kernel_check.t;  (** label, [run_csr] kernel, value digest *)
  payload_bytes : int option;
      (** of one remote Pregel message, before framing; [None] for
          triangle counting, which runs outside the message engines *)
  summary : 'v -> string;  (** the line the CLI prints for either engine's values *)
}

type any_algo = Algo : 'v algo -> any_algo

val default_landmarks : ?seed:int64 -> Cutfit_graph.Graph.t -> int array
(** The SSSP sources of {!compare_partitioners} and {!Sanitize}: 3
    vertices drawn from [seed] (default 11L). *)

val algo :
  ?iterations:int ->
  ?undirected:Cutfit_graph.Graph.t ->
  landmarks:int array Lazy.t ->
  Advisor.algorithm ->
  any_algo
(** [iterations] caps the boxed PR and CC runs (default 10, the
    kernels' cap); [undirected] goes to {!triangles}; [landmarks] are
    forced only for SSSP. *)

val oracle : 'v algo -> prepared -> string
(** Digest of one static boxed run of [p] on a memory-unconstrained copy
    of its cluster: the [engines] oracle when no completed run is at hand. *)

val compare_partitioners :
  ?check:bool ->
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?seed:int64 ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  algorithm:Advisor.algorithm ->
  Cutfit_graph.Graph.t ->
  (string * float) list
(** Simulated job time per paper partitioner for one algorithm at scale
    1.0, ascending (NaN last, for OOM). SSSP runs from
    {!default_landmarks} at [seed] (the CLI passes its [--seed]). With
    [telemetry], the six runs stream into one event sequence, each
    bracketed by a [Run_start] naming algorithm and partitioner.
    [check] and [what_if] are forwarded to each {!prepare}. *)
