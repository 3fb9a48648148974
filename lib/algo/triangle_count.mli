(** Triangle counting (GraphX [TriangleCount] structure).

    Unlike the three Pregel algorithms, triangle counting in GraphX is a
    fixed four-stage dataflow: collect each vertex's canonical neighbour
    set, replicate the sets to every edge partition that needs them,
    intersect per edge, and reduce per-vertex counts. The vertex state
    is a whole adjacency array, so synchronizing it pays a heavy
    per-cut-vertex reduction cost — the mechanism behind the paper's
    Figure 5 finding that the Cut metric (vertices replicated anywhere),
    not CommCost, predicts triangle-count time. *)

type result = {
  per_vertex : int array;  (** triangles through each vertex, counted as in [total] *)
  total : int;
      (** Triangle count over edge instances. A triangle [a < b < c] is
          found once per canonical edge instance between [a] and [b], its
          two lowest ids, where an edge [src -> dst] is canonical when
          [src <> dst] and either [src < dst] or [dst -> src] is absent.
          On a simple graph that is once per triangle; with parallel
          edges [total] can exceed {!Cutfit_graph.Triangles.count} (710
          against 709 on a seed-2 500k-edge uniform multigraph). *)
  trace : Cutfit_bsp.Trace.t;  (** one trace "superstep" per dataflow stage *)
}

val run :
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?undirected:Cutfit_graph.Graph.t ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  result
(** [undirected] lets callers share a precomputed symmetrized view of
    the graph across runs; it must equal [Graph.symmetrize] of the
    partitioned graph's underlying graph. *)

val run_csr : ?domains:int -> ?shadow:Cutfit_bsp.Ownership.t -> Cutfit_bsp.Csr.t -> int array * int
(** [run_csr c] is [(per_vertex, total)] computed for real from the
    graph under the compact {!Cutfit_bsp.Csr} layout, without the
    simulated dataflow trace; identical to {!run}'s counts at any
    [domains] (default 1), on multigraphs too, since int sums are
    order-exact.

    It enumerates forward in vertex-id order over
    {!Cutfit_graph.Graph.upper_neighbours}: for each [u] and each [v]
    in [up(u)], the part of [up(u)] after [v] is intersected with
    [up(v)] (by probing a mark array stamped with [up(u)]), so each
    triangle [u < v < x] is found exactly once. It is then weighted by the number of canonical edge instances
    between [u] and [v] (the [u -> v] edges if there are any, else the
    [v -> u] edges), which is how often {!run} finds it. The partition
    layout is not read. The substrate {!Cutfit_graph.Triangles} counts
    distinct triangles, so it agrees with [total] only on graphs
    without parallel edges.

    Each worker counts into its own array; a reduce over vertex chunks
    sums them into [per_vertex]. [shadow] (a vertex-space
    {!Cutfit_bsp.Csr.shadow}) records the reduce's per-vertex writes
    for the race sanitizer. *)

