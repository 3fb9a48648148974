(** Deterministic multi-job cluster workload engine.

    Replays a {!Job} stream against the simulated cluster: a fixed
    number of concurrent executor {e slots} admits jobs from the queue
    on a discrete-event clock, every admitted job picks a partitioning
    strategy through the advisor, consults the partitioning {!Cache},
    and then actually runs the algorithm through {!Cutfit.Pipeline}
    (the pregel engines produce the real simulated trace — nothing here
    is a closed-form estimate). Each job's service time decomposes
    against that trace: a cache miss pays load + partition build +
    execution, a hit pays execution only.

    Everything is deterministic: same jobs, policy, selection, cache
    configuration and seed — bit-identical report, which is what
    {!Workload_check.run_twice} digests. That holds with a fault
    schedule too: fault realizations are seeded per (job, attempt), so
    a faulty workload replays byte-identically.

    {2 Fault tolerance}

    [?checkpoint_every], [?faults] and [?speculation] form the one
    {!Cutfit_bsp.Pricer.what_if} every job's run is priced under, with a
    per-job realization of the fault schedule ({!Cutfit_bsp.Faults});
    scale events drive the executor slots instead (see [run]). A run
    whose cluster dies past its crash budget ends with outcome [aborted]; the
    engine then invalidates the whole partitioning cache (everything
    was resident on the lost cluster) and requeues the job with capped
    exponential backoff ([min 30.0 (2.0 *. 2.0 ** (attempt - 1))]
    simulated seconds after the [attempt]-th failed attempt), up to
    [max_retries] extra attempts — each
    retry gets a {e fresh} fault realization, so transient schedules
    ([rand@R]) usually succeed on retry while pinned deterministic
    crashes exhaust the budget and fail the job {e structurally}: a
    record carrying its [failure] reason, never an exception out of the
    scheduler loop. Malformed jobs (unknown dataset, nonsensical
    granularity) fail the same way at admission, with zero attempts. *)

type policy =
  | Fifo  (** admit in arrival order *)
  | Sjf
      (** shortest predicted job first: {!Cutfit.Advisor.predicted_build_s}
          (skipped when the needed partitioning is already cached) plus
          {!Cutfit.Advisor.predicted_exec_s} *)

val policy_name : policy -> string
val policy_of_string : string -> policy option

type selection =
  | Heuristic  (** the paper's free per-algorithm rules *)
  | Measured  (** rank all candidates, take the best (memoized per graph) *)
  | Cache_aware of float
      (** like [Measured], but prefer the best {e cached} strategy when
          its predictive-metric penalty relative to the overall best is
          at most the threshold (e.g. [0.25] = accept up to 25% worse
          expected traffic to skip a partition build) *)

val selection_name : selection -> string

val selection_of_string : ?threshold:float -> string -> selection option
(** ["heuristic"], ["measured"], ["cache-aware"] (with [threshold],
    default 0.25). *)

type shed_policy =
  | Reject  (** shed the incoming job when the queue is full *)
  | Drop_oldest
      (** displace the longest-waiting queued job (by arrival, then id)
          to make room for the incoming one *)

val shed_policy_name : shed_policy -> string
val shed_policy_of_string : string -> shed_policy option

type deadline =
  | Absolute of float  (** SLO deadline = arrival + this many seconds *)
  | Factor of float
      (** SLO deadline = arrival + factor x the advisor-predicted
          service time at admission (build, skipped when cached, plus
          execution) — the job's SLO scales with its expected cost *)

val breaker_scope : tenant:string -> dataset:string -> string
(** The breaker namespace a (tenant, dataset) pair lives in:
    ["<tenant>/<dataset>"], or the bare dataset for the default tenant —
    so single-tenant streams keep their pre-tenancy event streams
    byte-identical. [Breaker_open] / [Breaker_close] events carry this
    scope in their [dataset] field. *)

type breaker_transition =
  | Opened of Cutfit_obs.Event.breaker_open
      (** opened (or re-armed) at [at_s], the attempt-finish instant,
          after [failures] consecutive failures *)
  | Closed of Cutfit_obs.Event.breaker_close

type breaker_trip = {
  tenant : string;  (** owning tenant ({!Job.default_tenant} when untagged) *)
  dataset : string;  (** the bare dataset; the event's [dataset] is the {!breaker_scope} *)
  transition : breaker_transition;  (** the very payload the engine emitted *)
}
(** One circuit-breaker state transition — the audit trail
    {!Workload_check} checks for state-machine legality (first trip
    opens; a close only follows an open). The list is in the engine's
    decision order; with concurrent slots an attempt processed later
    can finish earlier, so the [at_s] instants are not globally
    sorted. *)

type job_record = {
  job : Job.t;
  start : Cutfit_obs.Event.job_start;
      (** the final attempt's admission — the [Job_start] payload that
          attempt emitted (strategy, cache hit, [start_s] and [queue_s =
          start_s -. arrival_s], which for a retried job spans the failed
          attempts and their backoff). A job that never ran (invalid,
          shed or culled in the queue) emits none: its strategy is ["-"]
          and its [start_s] the instant it was turned away. *)
  outcome : string;
      (** {!Cutfit_bsp.Trace.outcome_name} of the final attempt's run;
          ["invalid"] / ["error"] for structural failures; ["shed"] when
          admission control refused the job; ["deadline"] when its SLO
          deadline cancelled it (queued or mid-run) *)
  attempts : int;  (** runs actually launched (0 for invalid/shed jobs) *)
  preemptions : int;
      (** attempts cut short by a scheduled slot reclamation — each one
          requeued the job {e without} consuming its retry budget *)
  recoveries : int;  (** recovery records in the final attempt's trace *)
  recovery_s : float;  (** recovery time in the final attempt's trace *)
  speculations : int;
      (** speculative clones launched in the final attempt's trace *)
  deadline_s : float option;
      (** the job's absolute SLO deadline, when deadlines are enabled
          and the engine computed it before the job ended *)
  failure : string option;
      (** the human-readable cause, when the job ended without a
          completed run *)
  partition_s : float;  (** load + build actually paid; 0 on a cache hit *)
  exec_s : float;  (** supersteps + checkpoints + recovery, from the trace *)
  finish_s : float;  (** [start.start_s +. partition_s +. exec_s] *)
}
(** One job's outcome. A job that never produced a completed run carries
    its [failure]: no exception ever escapes {!run} for a per-job
    problem. *)

type mutation_mode =
  | Priced
      (** refresh when the summed refresh price over the dataset's
          resident cache entries is at most the summed rebuild price *)
  | Force_refresh  (** always take the incremental-repair path *)
  | Force_rebuild  (** always drop and rebuild cold — the control arm *)

val mutation_mode_name : mutation_mode -> string
val mutation_mode_of_string : string -> mutation_mode option
(** ["priced"], ["refresh"], ["rebuild"]. *)

type mutation_record = {
  mut_batch : int;  (** 1-based batch number = launches / mutate_every *)
  mut_dataset : string;  (** the launching job's dataset took the delta *)
  mut_at_s : float;  (** the triggering job's admission instant *)
  mut_inserts : int;
  mut_deletes : int;
  mut_edges_after : int;
  mut_refresh_s : float;  (** summed refresh price over resident entries *)
  mut_rebuild_s : float;  (** summed rebuild price over resident entries *)
  mut_choice : string;  (** ["refresh"] or ["rebuild"] *)
  mut_dropped_entries : int;  (** cache entries invalidated by the batch *)
  mut_refreshed_entries : int;  (** entries re-inserted at refresh price; 0 on rebuild *)
}
(** One applied mutation batch and its priced refresh-vs-rebuild
    decision, reconciling with the [Mutation_batch] / [Repartition]
    events the engine emits. *)

type report = {
  policy : policy;
  selection : selection;
  eviction : Cache.eviction;
  budget_bytes : float;
  slots : int;
  seed : int64;
  max_retries : int;
  fault_spec : string option;  (** the [--faults] spec, canonical ({!Cutfit_bsp.Faults.to_spec}) *)
  checkpoint_every : int option;
  queue_bound : int option;  (** admission-queue capacity, when bounded *)
  shed_policy : shed_policy;
  deadline : deadline option;
  breaker_k : int option;  (** consecutive failures that open a breaker *)
  breaker_cooldown_s : float;
  backpressure : int option;
      (** queue-depth watermark past which selection degrades to the
          cheapest cached strategy *)
  speculation : Cutfit_bsp.Speculation.config option;
  mutation_spec : string option;  (** the [--mutations] spec, canonical *)
  mutate_every : int;  (** job launches between mutation batches *)
  mutation_mode : mutation_mode;
  scale_spec : string option;  (** the [--scale-events] spec, canonical *)
  tenant_weights : (string * float) list;  (** fair-share weights (default 1.0) *)
  tenant_quota : int option;  (** per-tenant admission-queue quota, when any *)
  tenant_deadlines : (string * deadline) list;  (** tenant SLO overrides *)
  fairness : bool;  (** weighted fair sharing was active *)
  records : job_record list;  (** ascending job id, one per job *)
  breaker_trips : breaker_trip list;  (** in decision order *)
  mutations : mutation_record list;  (** in application order *)
  retries : int;  (** requeues performed, read off the per-job attempt counts *)
  joins : int;  (** membership growth changes of the scale spec (all applied by the end) *)
  leaves : int;  (** membership shrink changes of the scale spec (all applied by the end) *)
  stale_placement_hits : int;
      (** cache hits served from an entry placed on departed executors —
          the stale-placement law demands this stays 0 *)
  fairness_violations : int;
      (** independently recounted fair-share breaches — must stay 0 *)
  cache : Cache.stats;
}

(** {2 Folds over the records} *)

val failed_jobs : report -> int
(** Records carrying a [failure]. *)

val preemptions : report -> int
(** Attempts cut short by slot reclamations: the records' [preemptions]
    summed. *)

val makespan_s : report -> float
(** Last finish instant over the records (0 with none). *)

val total_partition_s : report -> float
val total_exec_s : report -> float

val shed_jobs : report -> int
(** Records with outcome ["shed"]. *)

val deadline_jobs : report -> int
(** Records with outcome ["deadline"] (queued culls and mid-run
    cancels). *)

val total_speculations : report -> int
(** Speculative clones launched across all final-attempt traces. *)

val latency_percentiles : report -> Cutfit_stats.Summary.ptiles option
(** Nearest-rank p50/p95/p99 of job latency ([finish_s -. arrival_s])
    over the records that produced a result (failed jobs excluded);
    [None] when every job failed. *)

val run :
  ?cluster:Cutfit_bsp.Cluster.t ->
  ?slots:int ->
  ?eviction:Cache.eviction ->
  ?budget_bytes:float ->
  ?iterations:int ->
  ?checkpoint_every:int ->
  ?faults:Cutfit_bsp.Faults.config ->
  ?speculation:Cutfit_bsp.Speculation.config ->
  ?max_retries:int ->
  ?queue_bound:int ->
  ?shed_policy:shed_policy ->
  ?deadline:deadline ->
  ?breaker_k:int ->
  ?breaker_cooldown_s:float ->
  ?backpressure:int ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  ?policy:policy ->
  ?selection:selection ->
  ?mutations:Cutfit_dynamic.Mutation.config ->
  ?mutate_every:int ->
  ?mutation_mode:mutation_mode ->
  ?mutation_heuristic:Cutfit_partition.Streaming.t ->
  ?scale_events:Cutfit_bsp.Elastic.config ->
  ?tenant_weights:(string * float) list ->
  ?tenant_quota:int ->
  ?tenant_deadlines:(string * deadline) list ->
  ?fairness:bool ->
  seed:int64 ->
  Job.t list ->
  report
(** Simulate the stream (any order; jobs are queued by arrival).
    Defaults: cluster (i) reconfigured per job to its partition count,
    2 slots, LRU, an 8 GB (paper-scale) budget, engine-default
    iteration caps, FIFO, [Cache_aware 0.25], no faults, no
    checkpointing, [max_retries = 2]. [seed] derives each SSSP job's
    landmark choice (mixed with the job id). With [telemetry], the
    engine narrates the whole simulation as [Job_submit] / [Job_start]
    / [Cache_op] / [Job_end] events — plus [Job_retry] per requeue and
    ["invalidate"] cache ops per cluster loss — that reconcile with the
    returned records ({!Workload_check.report}).

    {b Overload protection and straggler mitigation.}

    [speculation] forwards a {!Cutfit_bsp.Speculation} config into
    every Pregel/GAS run: stragglers get priced speculative clones,
    perturbing only each run's time accounting (the per-record
    [speculations] count and [Speculative_launch] / [Speculative_win]
    events itemize the clones).

    [queue_bound] caps the admission queue: a first-attempt job meeting
    a full queue is shed per [shed_policy] (default [Reject]) — a
    failed zero-cost ["shed"] record plus a [Job_shed] event; retries
    bypass the bound. [deadline] attaches a per-job SLO: a queued job
    past its deadline is culled where it stands, a running job is
    cancelled at the deadline instant (outcome ["deadline"], wasted
    work accounted up to the cancel, [Deadline_exceeded] event); neither
    consumes a retry attempt nor invalidates the cache.

    [breaker_k] arms a per-(dataset, strategy) circuit breaker: that
    many consecutive aborted / error / out-of-memory attempts open it,
    routing selection to the degraded cache-aware path until a probe
    succeeds after [breaker_cooldown_s] (default 60 s) — every
    transition is a {!breaker_trip} and a [Breaker_open] /
    [Breaker_close] event. [backpressure] is a queue-depth watermark
    past which selection degrades to the cheapest cached strategy even
    with every breaker closed.

    {b Dynamic graphs.}

    With [mutations], every [mutate_every]-th job launch (default 8)
    first lands the next {!Cutfit_dynamic.Mutation} batch on that job's
    own dataset: the memoized graph advances by the delta, the
    advisor's rankings for the dataset are re-measured lazily, and the
    cache is {e partially} invalidated — exactly the mutated dataset's
    keys are dropped ([Cache_op "invalidate"] events), other datasets
    stay warm. Each resident partitioning is first refreshed
    ({!Cutfit_dynamic.Incremental.refresh} under [mutation_heuristic],
    default Greedy) and priced both ways
    ({!Cutfit_dynamic.Repartition.price}), and
    {!Cutfit_dynamic.Repartition.decide} chooses over their sums, the
    same decision [cutfit mutate] takes over its one cut. With
    [mutation_mode] [Priced] (the default) the engine keeps that
    choice; [Force_refresh] and [Force_rebuild] override it. The refresh path repairs
    synchronously with the batch — each refreshed partitioning is
    re-inserted immediately valid and the triggering job's start is
    delayed by the summed refresh price — while the rebuild path leaves
    the cache cold for that dataset, so the next job on it pays its
    full partition build. Every batch appends a {!mutation_record} and
    emits [Mutation_batch] / [Repartition] events.

    {b Elasticity.}

    [scale_events] replays a {!Cutfit_bsp.Elastic} spec against the
    executor pool, with the spec's step numbers read as integer
    simulated seconds. [join\@T+N] opens N fresh slots at instant T;
    [leave\@T-N] retires slots gracefully — each departing slot finishes
    its running job and never takes another (membership is clamped to
    at least one slot, and grows at most by the spec's total joins);
    [preempt\@T:rN] reclaims a live slot mid-run at instant T (the
    victim drawn statelessly from the spec's seed): the attempt is cut
    short where it stands (outcome ["preempted"], wasted work accounted
    up to the reclamation, a ["preempt"]-kind [Fault_injected] event)
    and the job requeues with backoff {e without consuming its retry
    budget} — preemption is involuntary, the same rule that keeps sheds
    and deadline culls budget-neutral. Every applied membership change
    emits an [Executor_join] / [Executor_leave] event, and a shrink
    eagerly invalidates every cached partitioning whose recorded
    placement references a departed executor — the stale-placement law
    ([stale_placement_hits = 0]) is recounted on every hit.

    {b Multi-tenancy.}

    Jobs carry their {!Job.t.tenant} tag. [fairness] enables weighted
    fair sharing over slot busy-time: each launch serves the pending
    tenant with the smallest busy/weight deficit ([tenant_weights],
    default weight 1.0), with the scheduling policy ordering jobs
    within the chosen tenant; [fairness_violations] independently
    recounts the invariant. [tenant_quota] caps each tenant's pending
    first-attempt jobs — a job arriving over quota is throttled
    ([Tenant_throttle] event) and shed with policy ["quota"].
    [tenant_deadlines] overrides the global [deadline] per tenant.
    Circuit breakers are namespaced per tenant ({!breaker_scope}), so
    one tenant's failures never degrade another's routing.
    @raise Cutfit_bsp.Spec_error.Error (dsl ["workload"], item the
    argument's name) before any job runs if [slots], [checkpoint_every],
    [queue_bound], [breaker_k], [mutate_every] or [tenant_quota] is
    below 1, [max_retries], [backpressure], [breaker_cooldown_s] or a
    [Cache_aware] threshold is below 0 or NaN, [budget_bytes] is
    negative or not finite (0 disables the cache), a deadline or tenant
    weight is not positive, or a tenant weight has an empty name. *)

val hit_rate : report -> float
(** Cache hits over lookups (0 when there were none). *)

val mean_queue_s : report -> float

val report_lines : report -> string list
(** Canonical JSONL: one parameter/summary line (now carrying the
    overload and mutation knobs and the latency percentiles), one line
    per job record, one failure line per failed record (job-id order),
    one line per breaker trip, one line per mutation batch, one
    cache-stats line — floats bit-exact, so the lines are a
    digest-stable serialization of the whole simulation
    ({!Workload_check.digest}). *)

val pp_summary : Format.formatter -> report -> unit
(** Human-oriented multi-line summary (policy, makespan, queue, cache
    hit rate) used by the CLI. *)
