(** Shortest paths to a landmark set (GraphX [ShortestPaths] semantics).

    Each vertex maintains a vector of hop distances to every landmark;
    messages flow from edge destinations to sources, so the result is
    the forward distance from each vertex to each landmark. The run
    continues to fixpoint, which on the road networks means hundreds of
    supersteps — in the paper those runs died of Spark out-of-memory
    errors, which the engine's lineage memory model reproduces. *)

type result = {
  distances : int array array;  (** [distances.(v).(i)] = hops from [v] to landmark [i], [max_int] if unreachable *)
  trace : Cutfit_bsp.Trace.t;
}

val run :
  ?max_supersteps:int ->
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  landmarks:int array ->
  Cutfit_bsp.Pgraph.t ->
  result
(** [what_if]: {!Cutfit_bsp.Pricer.what_if}; its [checkpoint_every]
    lets the road-network runs finish instead of reproducing the paper's
    out-of-memory failure.
    @raise Invalid_argument on an empty or out-of-range landmark set. *)

val run_csr :
  ?max_supersteps:int ->
  ?domains:int ->
  ?rounds:int ref ->
  ?shadow:Cutfit_bsp.Ownership.t ->
  landmarks:int array ->
  Cutfit_bsp.Csr.t ->
  int array array
(** Real execution on the compact {!Cutfit_bsp.Csr} layout; distances
    are bit-identical to {!run}'s at any [domains]. Defaults: 2000
    supersteps, 1 domain. [rounds] receives the number of executed
    scatter/reduce rounds. [shadow] records slot writes and consumes
    for the race sanitizer, as in {!Pagerank.run_csr}.
    @raise Invalid_argument on an empty or out-of-range landmark set. *)

val pick_landmarks : seed:int64 -> count:int -> Cutfit_graph.Graph.t -> int array
(** Deterministically sample [count] distinct landmark vertices (the
    paper randomly selects 5 sources per dataset). *)

val reference : Cutfit_graph.Graph.t -> landmarks:int array -> int array array
(** Sequential BFS distances for validation. *)
