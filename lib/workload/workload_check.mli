(** Sanitizer suites for the workload engine (suite ["workload"]).

    Never asserts — returns {!Cutfit_check.Violation.t} lists, in the
    house style. Three layers:

    - {!report} checks the cache's conservation laws on the report's
      {!Cache.stats} (lookups split into hits and misses, live entries =
      insertions - evictions - invalidations, bytes in cache = bytes
      inserted - evicted - invalidated, budget respected) — fabricate an
      inconsistent record and it must object — and a full
      {!Engine.report}: per-record arithmetic (queue, finish, hit implies
      no partition cost, failed jobs carry a failing outcome, zero-attempt
      jobs carry no run artifacts, shed jobs accrue no cost,
      deadline-cancelled jobs finish at their deadline and no uncancelled
      job overshoots its SLO), aggregate laws (one cache lookup per
      attempt, at least as many cache hits as hit records, retries
      recounted against the records' attempts, every record bucketing
      into a known outcome), breaker-trip state-machine legality (an open
      carries at least the armed threshold of failures, a close only
      follows an open), mutation and elasticity laws, and, when the
      emitted event stream is supplied, event-vs-report reconciliation;
    - {!digest}/{!run_twice} canonicalize a report through the JSONL
      codec for bit-exact determinism checking;
    - {!check_run} is the whole battery on one stream: one observed run
      checked against its own event stream, then one replay.

    Some facts are stored once and so need no check. A record's [start]
    is the [Job_start] payload its final attempt emitted, and a breaker
    trip holds the [Breaker_open] / [Breaker_close] payload the engine
    emitted, so neither is compared field by field with its event.
    [makespan_s], the totals, [preemptions] and [failed_jobs] are folds
    over the records, and a failure reason lives on its record, so
    nothing recounts them against a stored copy. *)

val report : ?events:Cutfit_obs.Event.t list -> Engine.report -> Cutfit_check.Violation.t list
(** With [events], additionally reconciles the narrated stream against
    the report, in time linear in the stream: every job event names a
    known job (an orphan is reported once, as [event-orphan], and left
    out of the counts); submits, starts and ends count one per job and
    attempt; submit, final [Job_end], shed, throttle and deadline events
    agree with their records; retries, sheds, deadline cancels,
    speculative clones, scale events and quota throttles agree with the
    report; and cache-op counts equal the cache's own counters. *)

val digest : Engine.report -> string
(** MD5 hex of {!Engine.report_lines} — floats bit-exact. *)

val run_twice : label:string -> (unit -> Engine.report) -> Cutfit_check.Violation.t list
(** Runs the thunk twice and compares {!digest}s
    ({!Cutfit_check.Determinism.run_twice}). *)

val check_run :
  label:string ->
  ?sinks:Cutfit_obs.Sink.t list ->
  (?telemetry:Cutfit_obs.Telemetry.t -> unit -> Engine.report) ->
  Engine.report * string * Cutfit_check.Violation.t list
(** [check_run ~label ?sinks run] runs [run] once with telemetry on (the
    given [sinks], default none, plus a sink keeping every event, however
    long the stream), checks that report against the stream with {!report}, then
    runs [run] once more with telemetry off and compares the two
    {!digest}s ({!Cutfit_check.Determinism.replay}): the report must
    not depend on whether anything observes the run. Returns the
    observed run's report, its {!digest} and the violations,
    {!report}'s first. *)
