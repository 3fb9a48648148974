(** Run one chaos scenario through the real engines and the full
    sanitizer battery, isolated in a forked child under a wall-clock
    budget. *)

type outcome =
  | Passed  (** every suite clean *)
  | Violated of Cutfit_check.Violation.t list  (** at least one violation *)
  | Hung  (** the wall-clock budget expired; the child was killed *)
  | Crashed of string  (** the child died or threw instead of reporting *)

val outcome_name : outcome -> string

val execute : Scenario.t -> Cutfit_check.Violation.t list
(** In-process, no isolation: the pipeline sanitizer
    ({!Cutfit.Sanitize.check_run} with the scenario's fault schedule,
    speculation, scale events, heterogeneity, engine/domain counts and
    mutation schedule), then — when [jobs > 0] — the workload phase
    ({!Cutfit_workload.Engine.run} with the overload and tenancy knobs,
    checked by {!Cutfit_workload.Workload_check.report} against the
    emitted event stream plus the run-twice digest), then any [inject]ed
    fabricated violation. The empty list means the scenario passed. *)

val run : ?budget_s:float -> Scenario.t -> outcome
(** {!execute} in a forked child (default budget 30 s). The child
    marshals its result over a pipe and [_exit]s; a blown budget
    SIGKILLs it and reports {!Hung}; an escape of any other kind is
    {!Crashed}. The parent never trusts the child beyond the pipe, so a
    campaign outlives anything a scenario does.
    @raise Invalid_argument unless [budget_s] is finite and positive. *)
