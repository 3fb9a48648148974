(** Cut to Fit: tailoring graph partitioning to the computation.

    Umbrella module re-exporting the whole library surface. The paper's
    contribution lives in {!Advisor} (strategy selection) and
    {!Pipeline} (partition-aware analytics); everything else is the
    substrate it runs on:

    - {!Graph}, {!Edge_list}, {!Components}, {!Triangles}, {!Bfs},
      {!Diameter}, {!Characterize}, {!Graph_io} — the graph toolkit;
    - {!Strategy}, {!Streaming}, {!Partitioner}, {!Metrics} — vertex-cut
      partitioning;
    - {!Pgraph}, {!Pregel}, {!Cluster}, {!Cost_model}, {!Pricer},
      {!Trace} — the simulated GraphX/Spark runtime ({!Pricer.what_if} is
      the one value for the perturbations a run is priced under);
    - {!Csr}, {!Par_exec} — the compact flat-array representation and
      the multicore superstep driver that execute the same algorithms
      for real (see docs/PERFORMANCE.md);
    - {!Mutation}, {!Incremental}, {!Repartition}, {!Dyn_check} — the
      dynamic-graph subsystem: seeded mutation batches, incremental
      repair of a streaming cut, and the priced refresh-vs-rebuild
      decision;
    - {!Telemetry}, {!Metric}, {!Event}, {!Sink}, {!Json}, {!Clock} —
      structured per-superstep telemetry and its sinks;
    - {!Check}, {!Sanitize} — runtime invariant suites (the simulator
      sanitizer) and the full-run checker behind [cutfit check];
    - {!Pagerank}, {!Connected_components}, {!Triangle_count}, {!Sssp} —
      the four analytics algorithms;
    - {!Grid}, {!Social}, {!Datasets} — synthetic dataset generators;
    - {!Summary}, {!Correlation}, {!Cdf}, {!Histogram} —
      statistics. *)

module Advisor = Advisor
module Pipeline = Pipeline
module Sanitize = Sanitize

(* Correctness tooling *)
module Check = Cutfit_check

(* Graph substrate *)
module Graph = Cutfit_graph.Graph
module Edge_list = Cutfit_graph.Edge_list
module Union_find = Cutfit_graph.Union_find
module Components = Cutfit_graph.Components
module Bfs = Cutfit_graph.Bfs
module Triangles = Cutfit_graph.Triangles
module Diameter = Cutfit_graph.Diameter
module Characterize = Cutfit_graph.Characterize
module Graph_io = Cutfit_graph.Graph_io

(* Partitioning *)
module Strategy = Cutfit_partition.Strategy
module Streaming = Cutfit_partition.Streaming
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Hashing = Cutfit_partition.Hashing

(* Observability *)
module Telemetry = Cutfit_obs.Telemetry
module Metric = Cutfit_obs.Metric
module Event = Cutfit_obs.Event
module Sink = Cutfit_obs.Sink
module Json = Cutfit_obs.Json
module Clock = Cutfit_obs.Clock

(* Simulated runtime *)
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Pgraph = Cutfit_bsp.Pgraph
module Pregel = Cutfit_bsp.Pregel
module Gas = Cutfit_bsp.Gas
module Trace = Cutfit_bsp.Trace
module Faults = Cutfit_bsp.Faults
module Spec_error = Cutfit_bsp.Spec_error
module Speculation = Cutfit_bsp.Speculation
module Elastic = Cutfit_bsp.Elastic
module Pricer = Cutfit_bsp.Pricer

(* Compact real-execution layer *)
module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec

(* Dynamic graphs *)
module Mutation = Cutfit_dynamic.Mutation
module Incremental = Cutfit_dynamic.Incremental
module Repartition = Cutfit_dynamic.Repartition
module Dyn_check = Cutfit_dynamic.Dyn_check

(* Algorithms *)
module Pagerank = Cutfit_algo.Pagerank
module Connected_components = Cutfit_algo.Connected_components
module Triangle_count = Cutfit_algo.Triangle_count
module Sssp = Cutfit_algo.Sssp

(* Generators *)
module Grid = Cutfit_gen.Grid
module Social = Cutfit_gen.Social
module Datasets = Cutfit_gen.Datasets

(* Randomness and statistics *)
module Splitmix64 = Cutfit_prng.Splitmix64
module Xoshiro = Cutfit_prng.Xoshiro
module Dist = Cutfit_prng.Dist
module Summary = Cutfit_stats.Summary
module Correlation = Cutfit_stats.Correlation
module Cdf = Cutfit_stats.Cdf
module Histogram = Cutfit_stats.Histogram
