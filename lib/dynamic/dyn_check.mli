(** Dynamic-graph sanitizer suite (["dynamic"]).

    Four laws tie the dynamic subsystem to the frozen-graph world:

    + {b delta-identity} — a delta-applied graph is bit-identical
      (vertex count, edge arrays, and the four CSR arrays its splice
      built) to a from-scratch {!Cutfit_graph.Graph.create} over the
      independently maintained edge list;
    + {b cut laws} — a refreshed cut passes every
      {!Cutfit_check.Pgraph_check} / {!Cutfit_check.Metrics_check} law a
      cold-built cut does;
    + {b refresh-rebuild-equivalence} — building and running on the
      refreshed assignment is reproducible: algorithm values on the
      validated build of the cut are bit-identical to those on a second,
      cold build of a copy of the same assignment;
    + {b moved-replicas} — the refresh's delta-local moved count equals
      the replica entries in which the old and new cuts' route tables
      differ, recounted over every vertex.

    Like every suite, the checks report {!Cutfit_check.Violation.t}
    values and never raise on law breaches. *)

val graph_identity :
  expect:Cutfit_graph.Graph.t -> Cutfit_graph.Graph.t -> Cutfit_check.Violation.t list
(** Law 1 on one pair: is [got] bit-identical to [expect]? Reports are
    capped at 8 per call. A test hook: {!validate} builds [expect]
    itself, so only a direct call can hand the law a corrupted graph. *)

val validate :
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?batches:int ->
  heuristic:Cutfit_partition.Streaming.t ->
  num_partitions:int ->
  Mutation.config ->
  Cutfit_graph.Graph.t ->
  Cutfit_check.Violation.t list
(** Walk batches [1..batches] (default {!Mutation.max_batch}) from a
    fresh [heuristic] cut of the graph, refreshing incrementally and
    checking all four laws at every non-empty batch. Each refreshed
    assignment is validated and built once; Laws 2 and 3 share that
    build, and Law 4 compares it with the previous batch's build (the
    initial cut is built once, for the first batch). Law 3 runs
    PageRank for 3 iterations on each build.
    @raise Invalid_argument if [num_partitions <= 0]. *)
