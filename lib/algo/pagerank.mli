(** PageRank (GraphX [staticPageRank] semantics).

    Rank update [r(v) = 0.15 + 0.85 * sum (r(u) / outdeg u)] over
    in-neighbours, iterated a fixed number of times (the paper uses 10).
    Computation per vertex is tiny relative to the messages exchanged,
    which is why the paper finds CommCost to be its best time
    predictor. *)

type result = { ranks : float array; trace : Cutfit_bsp.Trace.t }

val run :
  ?iterations:int ->
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  result
(** Default 10 iterations. [what_if]: {!Cutfit_bsp.Pricer.what_if};
    it never changes the ranks. *)

val price :
  ?iterations:int ->
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  Cutfit_bsp.Trace.t
(** {!run}'s trace (and events) without its ranks, through
    {!Cutfit_bsp.Pregel.price}: supersteps 2 on of a run whose active
    edges repeat step 1's are priced without being executed. *)

val run_gas :
  ?iterations:int ->
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?what_if:Cutfit_bsp.Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  result
(** The same computation on the PowerGraph-style {!Cutfit_bsp.Gas}
    engine; ranks agree with {!run}, times reflect GAS's gather-side
    communication pattern (the cross-engine comparison of Verma et
    al. in the paper's related work). *)

val run_csr :
  ?iterations:int ->
  ?domains:int ->
  ?rounds:int ref ->
  ?shadow:Cutfit_bsp.Ownership.t ->
  Cutfit_bsp.Csr.t ->
  float array
(** The same recurrence executed for real on the compact
    {!Cutfit_bsp.Csr} layout via {!Cutfit_bsp.Par_exec} — no simulated
    trace, wall-clock fast. Defaults: 10 iterations, 1 domain. Ranks
    are bit-identical to {!run}'s at any [domains] (the fixed
    partition-indexed reduction order; see docs/PERFORMANCE.md), which
    the [engines] suite of {!Cutfit_check.Kernel_check} enforces. [rounds], when given, is set
    to the number of scatter/reduce rounds executed, so callers can
    report edges-scanned-per-second. [shadow] (a
    {!Cutfit_bsp.Csr.shadow}) records every slot write and consume for
    the [races] suite of {!Cutfit_check.Kernel_check}; the ranks do not
    change. *)

val reference : iterations:int -> Cutfit_graph.Graph.t -> float array
(** Sequential implementation of the same recurrence, for validating the
    BSP execution (they agree to floating-point noise). *)
