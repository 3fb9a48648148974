(** Priced refresh-vs-rebuild decisions.

    For every mutation batch two options compete: {e refresh} the live
    cut ({!Incremental.refresh} — per-edge online placement, local
    delete repair, mirror re-broadcast for moved replicas) or {e
    rebuild} it from scratch (the advisor's full partition-build
    prediction). Both are priced through the same
    {!Cutfit_bsp.Cost_model}/{!Cutfit_bsp.Cluster} the simulator and
    advisor use, and the cheaper one wins.

    This is the one decision for both drivers: {!run} (behind [cutfit
    mutate]) decides over its one live cut, and the workload engine
    over every resident partitioning of the mutated dataset. Each
    prices its cuts with {!price}, decides with {!decide} and narrates
    the decision with {!events}. *)

type choice = Refresh | Rebuild

val choice_name : choice -> string
(** ["refresh"] | ["rebuild"]. *)

type priced = { refreshed : Incremental.refreshed; refresh_s : float; rebuild_s : float }
(** One cut priced both ways, in modeled seconds. *)

val price :
  cluster:Cutfit_bsp.Cluster.t ->
  scale:float ->
  old_metrics:Cutfit_partition.Metrics.t ->
  Mutation.applied ->
  Incremental.refreshed ->
  priced
(** [price ~cluster ~scale ~old_metrics applied refreshed] prices the
    cut [refreshed] of [applied.graph]. The refresh pays streaming
    placement and shuffle of the inserted edges, local table repair for
    delete-touched vertices, mirror re-broadcast of moved replicas and
    one commit barrier. The rebuild is the advisor's build prediction
    over the per-partition shape [old_metrics] of the pre-delta cut plus
    the storage load of the whole post-delta graph. [scale] (the
    paper-size factor) multiplies everything but the refresh's
    barrier. *)

type decision = {
  batch : int;
  inserts : int;
  deletes : int;
  edges_before : int;
  edges_after : int;
  refresh_s : float;
  rebuild_s : float;
  choice : choice;
  placed_edges : int;
  repaired_vertices : int;
  moved_replicas : int;
}
(** One batch's decision; prices and counts are summed over its cuts. *)

val decide : Mutation.applied -> priced list -> decision
(** Sums folded from [0.0] in list order (one cut's sum is its own
    price), then [Refresh] when the summed refresh is no dearer than
    the summed rebuild. An empty list decides [Refresh] at 0/0. *)

val events : graph:string -> at_s:float -> decision -> Cutfit_obs.Event.t list
(** The decision's {!Cutfit_obs.Event.Mutation_batch} and
    {!Cutfit_obs.Event.Repartition} records, in that order, on dataset
    [graph] at simulated instant [at_s] (["-"] and [0] outside the
    workload engine). *)

type step = {
  decision : decision;
  graph : Cutfit_graph.Graph.t;  (** post-batch graph *)
  assignment : int array;  (** the cut actually adopted *)
  metrics : Cutfit_partition.Metrics.t;  (** of the adopted cut *)
}

val run :
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?batches:int ->
  heuristic:Cutfit_partition.Streaming.t ->
  num_partitions:int ->
  Mutation.config ->
  Cutfit_graph.Graph.t ->
  step list
(** The standalone mutation driver behind [cutfit mutate]: stream an
    initial cut with [heuristic], then walk batches [1..batches]
    (default {!Mutation.max_batch}), pricing the live cut on [cluster]
    (default {!Cutfit_bsp.Cluster.config_i}) at scale 1 and refreshing
    or re-streaming it as {!decide} chooses. Batches whose delta is
    empty are skipped.
    @raise Invalid_argument if [num_partitions <= 0] or [batches < 1]. *)
