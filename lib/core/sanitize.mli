(** Full-pipeline sanitizer: one entry point that partitions a graph,
    runs an algorithm with telemetry attached, and subjects the result
    to every {!Cutfit_check} suite plus the run-twice determinism
    harness. Backs the [cutfit check] subcommand and the [--paranoid]
    CLI flag.

    Suites, in order: [pgraph] (structure vs assignment), [metrics]
    (recomputation + §3.1 identity), [trace] (conservation laws, with
    the wire-payload law on the Pregel-engine algorithms), [telemetry]
    (event stream vs trace reconciliation), [determinism] (the
    sanitized run and one replay of it through the table's
    {!Pipeline.algo} [price] must digest identically, so PageRank's
    [price] is held to its [run] on every check). With
    a fault schedule or a speculation config a sixth suite, [faults],
    replays the pipeline fault-free and speculation-free (same
    checkpoint cadence, scale events and hosts) and proves the
    equivalence invariant via {!Cutfit_check.Fault_check}: the
    perturbed run's final vertex
    values are bit-identical to the baseline's, its communication
    structure is unchanged, and its compute supersteps never sum
    cheaper. With [engine_domains] a further suite, [engines], proves
    the compact {!Cutfit_bsp.Csr} kernel reproduces the boxed engine's
    vertex values bit-for-bit at each listed domain count, twice per
    count; its oracle is the sanitized run's own values when that run
    completed. With [race_domains] a [races] suite runs the algorithm's
    compact kernel with the shadow write-ownership recorder at each
    listed domain count and self-tests the detector against two seeded
    corruptions. Both come from {!Cutfit_check.Kernel_check} and share
    one {!Cutfit_bsp.Csr} image of the sanitized run's partitioned
    graph. With [dynamic] a
    [dynamic] suite replays the mutation schedule from a fresh
    streaming cut of the same graph and proves the four dynamic-graph
    laws ({!Cutfit_dynamic.Dyn_check}). With [elastic] (a scale-event
    schedule) or [hetero] (per-executor speed/bandwidth multipliers) an
    [elastic] suite replays the pipeline statically and homogeneously
    (same checkpoint cadence, faults and speculation) and proves
    membership churn perturbed only time and locality —
    bit-identical vertex values, unchanged placement-independent
    structure, an unbroken membership chain
    ({!Cutfit_check.Elastic_check}). *)

type report = {
  algorithm : Advisor.algorithm;
  partitioner : Cutfit_partition.Partitioner.t;
  suites : (string * int) list;  (** suite name, violation count *)
  violations : Cutfit_check.Violation.t list;  (** all suites, in order *)
  trace_digest : string;
  events_digest : string;
}

val ok : report -> bool

val check_run :
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?partitioner:Cutfit_partition.Partitioner.t ->
  ?scale:float ->
  ?checkpoint_every:int ->
  ?faults:Cutfit_bsp.Faults.config ->
  ?speculation:Cutfit_bsp.Speculation.config ->
  ?elastic:Cutfit_bsp.Elastic.config ->
  ?hetero:Cutfit_bsp.Elastic.hetero ->
  ?engine_domains:int list ->
  ?race_domains:int list ->
  ?dynamic:Cutfit_dynamic.Mutation.config ->
  algorithm:Advisor.algorithm ->
  Cutfit_graph.Graph.t ->
  report
(** Defaults mirror {!Pipeline.prepare}: cluster configuration (i), the
    advisor's partitioner, scale 1.0. [checkpoint_every], [faults],
    [speculation], [elastic] and [hetero] are the fields of the one
    {!Cutfit_bsp.Pricer.what_if} every run of the check is priced
    under; each baseline removes only the fields its suite perturbs.
    SSSP runs from {!Pipeline.default_landmarks}. Runs the pipeline
    twice in total (once observed, once more as the determinism
    replay, whose digest must equal the observed run's) — three with
    [faults] or [speculation], which add the unperturbed baseline for
    the equivalence suite, and one more with [elastic] or [hetero] for
    the static-replay baseline. The [engines] suite adds one boxed run
    only when the sanitized run ran out of memory or aborted. *)

val pp_report : Format.formatter -> report -> unit
