(** Sanitizer suites for the workload engine (suite ["workload"]).

    Never asserts — returns {!Cutfit_check.Violation.t} lists, in the
    house style. Three layers:

    - {!report} checks the cache's conservation laws on the report's
      {!Cache.stats} (lookups split into hits and misses, live entries =
      insertions - evictions - invalidations, bytes in cache = bytes
      inserted - evicted - invalidated, budget respected) — fabricate an
      inconsistent record and it must object — and a full
      {!Engine.report}: per-record arithmetic
      (queue, finish, hit implies no partition cost, failed jobs carry
      a failing outcome, zero-attempt jobs carry no run artifacts, shed
      jobs accrue no cost, deadline-cancelled jobs finish at their
      deadline and no uncancelled job overshoots its SLO), aggregate
      consistency (makespan, totals recomputed, one cache lookup per
      attempt, retries and failures recounted against the records,
      every record bucketing into a known outcome), breaker-trip
      state-machine legality (first trip opens at the armed threshold,
      a close only follows an open, chronological order), and, when the
      emitted event stream is supplied, event-vs-record reconciliation
      — including the shed / deadline / breaker / speculation
      narration;
    - {!digest}/{!run_twice} canonicalize a report through the JSONL
      codec for bit-exact determinism checking;
    - {!check_run} is the whole battery on one stream: one observed run
      checked against its own event stream, then one replay. *)

val report : ?events:Cutfit_obs.Event.t list -> Engine.report -> Cutfit_check.Violation.t list
(** With [events], additionally reconciles the narrated stream against
    the records: one submit/start/end triple per job with identical
    fields, and cache-op counts equal to the cache's own counters. *)

val digest : Engine.report -> string
(** MD5 hex of {!Engine.report_lines} — floats bit-exact. *)

val run_twice : label:string -> (unit -> Engine.report) -> Cutfit_check.Violation.t list
(** Runs the thunk twice and compares {!digest}s
    ({!Cutfit_check.Determinism.run_twice}). *)

val check_run :
  label:string ->
  ?sinks:Cutfit_obs.Sink.t list ->
  (?telemetry:Cutfit_obs.Telemetry.t -> unit -> Engine.report) ->
  Engine.report * Cutfit_check.Violation.t list
(** [check_run ~label ?sinks run] runs [run] once with telemetry on (the
    given [sinks], default none, plus a ring sink capturing the event
    stream), checks that report against the stream with {!report}, then
    runs [run] once more with telemetry off and compares the two
    {!digest}s ({!Cutfit_check.Determinism.replay}): the report must
    not depend on whether anything observes the run. Returns the
    observed run's report and the violations, {!report}'s first. *)
