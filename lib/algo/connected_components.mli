(** Connected components by label propagation (GraphX semantics).

    Every vertex starts labelled with its own id and repeatedly adopts
    the minimum label over its neighbours (both edge directions), so
    each component converges to its lowest vertex id. Most labels
    stabilize within a few supersteps, after which the shrinking active
    set makes fine-grained partitionings win — the granularity effect of
    the paper's Figure 4 discussion.

    The paper caps the run at 10 iterations (enough for the social
    graphs' short diameters, an approximation on road networks). *)

type result = { labels : int array; trace : Cutfit_bsp.Trace.t }

val run :
  ?iterations:int ->
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  result
(** Default 10 iterations, per the paper. Pass a large [iterations] to
    reach the exact fixpoint. [what_if]: {!Cutfit_bsp.Pricer.what_if}. *)

val run_csr :
  ?iterations:int ->
  ?domains:int ->
  ?rounds:int ref ->
  ?shadow:Cutfit_bsp.Ownership.t ->
  Cutfit_bsp.Csr.t ->
  int array
(** Real execution on the compact {!Cutfit_bsp.Csr} layout; labels are
    bit-identical to {!run}'s at any [domains]. Defaults: 10
    iterations, 1 domain. [rounds] receives the number of executed
    scatter/reduce rounds. [shadow] records slot writes and consumes
    for the race sanitizer, as in {!Pagerank.run_csr}. *)

val reference : Cutfit_graph.Graph.t -> int array
(** Exact component labels (same lowest-id convention) via union-find;
    the BSP run converges to this when given enough iterations. *)
