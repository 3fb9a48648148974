(** Priced refresh-vs-rebuild decisions.

    For every mutation batch two options compete: {e refresh} the live
    cut ({!Incremental.refresh} — per-edge online placement, local
    delete repair, mirror re-broadcast for moved replicas) or {e
    rebuild} it from scratch (the advisor's full partition-build
    prediction). Both are priced through the same
    {!Cutfit_bsp.Cost_model}/{!Cutfit_bsp.Cluster} the simulator and
    advisor use, and the cheaper one wins. *)

type choice = Refresh | Rebuild

val choice_name : choice -> string
(** ["refresh"] | ["rebuild"]. *)

val refresh_price :
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?scale:float ->
  placed_edges:int ->
  repaired_vertices:int ->
  moved_replicas:int ->
  unit ->
  float
(** Modeled seconds to refresh a cut in place: streaming placement and
    shuffle of the inserted edges, local table repair for delete-touched
    vertices, mirror re-broadcast of moved replicas, one barrier. *)

val rebuild_price :
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?scale:float ->
  Cutfit_graph.Graph.t ->
  Cutfit_partition.Metrics.t ->
  float
(** Modeled seconds to rebuild the cut of the (post-delta) graph from
    scratch: the advisor's build prediction over the per-partition shape
    of [metrics] (the pre-delta cut is the natural estimate) plus the
    storage load of the whole graph. *)

type decision = {
  batch : int;
  inserts : int;
  deletes : int;
  refresh_s : float;
  rebuild_s : float;
  choice : choice;
  placed_edges : int;
  repaired_vertices : int;
  moved_replicas : int;
  edges_after : int;
}

type step = {
  decision : decision;
  graph : Cutfit_graph.Graph.t;  (** post-batch graph *)
  assignment : int array;  (** the cut actually adopted *)
  metrics : Cutfit_partition.Metrics.t;  (** of the adopted cut *)
}

val run :
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?scale:float ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  ?batches:int ->
  heuristic:Cutfit_partition.Streaming.t ->
  num_partitions:int ->
  Mutation.config ->
  Cutfit_graph.Graph.t ->
  step list
(** The standalone mutation driver behind [cutfit mutate]: stream an
    initial cut with [heuristic], then walk batches [1..batches]
    (default {!Mutation.max_batch}), refreshing or re-streaming,
    whichever is priced cheaper (ties go to refresh). Batches whose
    delta is empty are skipped. Emits one
    {!Cutfit_obs.Event.Mutation_batch} / {!Cutfit_obs.Event.Repartition}
    pair per non-empty batch when [telemetry] is given.
    @raise Invalid_argument if [num_partitions <= 0] or [batches < 1]. *)
