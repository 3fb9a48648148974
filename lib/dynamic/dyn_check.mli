(** Dynamic-graph sanitizer suite (["dynamic"]).

    Four laws tie the dynamic subsystem to the frozen-graph world:

    + {b delta-identity} — a delta-applied graph is bit-identical (edge
      arrays, vertex count, hence CSR adjacency) to a from-scratch
      {!Cutfit_graph.Graph.create} over the independently maintained
      edge list;
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

val suite : string

val graph_identity :
  expect:Cutfit_graph.Graph.t -> Cutfit_graph.Graph.t -> Cutfit_check.Violation.t list
(** Law 1 on one pair: is [got] bit-identical to [expect]? Reports are
    capped at 8 per call. *)

val cut_laws : Cutfit_graph.Graph.t -> num_partitions:int -> int array -> Cutfit_check.Violation.t list
(** Law 2 on one cut: raw-assignment shape, then the full
    [Pgraph_check]/[Metrics_check] battery over the built pgraph. *)

val value_equivalence :
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?iterations:int ->
  Cutfit_graph.Graph.t ->
  num_partitions:int ->
  int array ->
  Cutfit_check.Violation.t list
(** Law 3 on one cut: PageRank (default 3 iterations) digests equal
    between the cut and a cold rebuild of a copied assignment. *)

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
    initial cut is built once, for the first batch).
    @raise Invalid_argument if [num_partitions <= 0]. *)
