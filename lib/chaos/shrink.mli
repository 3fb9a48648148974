(** Delta-debugging shrinker over the scenario spec grammar.

    Given a failing scenario and an oracle deciding "does this still
    fail the same way?", greedily walks toward a minimal still-failing
    repro: whole-dimension drops and count halvings first (biggest cut
    wins), then single-event removals, then refinements (windows
    collapsed to one step, knobs walked back to defaults). The result is
    a fixpoint over every single-event removal (a fault / scale /
    mutation item, a domains entry, or one knob reset to its default),
    so it is locally minimal: removing any single remaining event clears
    the failure. *)

val shrink : ?max_steps:int -> oracle:(Scenario.t -> bool) -> Scenario.t -> Scenario.t
(** Greedy fixpoint: repeatedly move to the first candidate the oracle
    accepts (i.e. that still fails). Candidates come in attempt order
    (coarse cuts, then single-event removals, then refinements),
    deduplicated, the unchanged scenario excluded. The input scenario is assumed to
    fail; the result is it or a smaller scenario the oracle accepted at
    every step. [max_steps] (default 10000) is a backstop only. *)

(** {1 Failure classes} *)

type failure_class =
  | Violation_class of string * string
      (** (suite, rule) of the first reported violation *)
  | Crash_class of string  (** first line of the crash message, capped *)

val class_name : failure_class -> string

val classify : Runner.outcome -> failure_class option
(** [None] for [Passed] and [Hung] — a scenario that merely outgrew its
    budget is not a failure to preserve. *)

val oracle_for : ?budget_s:float -> failure_class -> Scenario.t -> bool
(** The real-run oracle: fork-isolated {!Runner.run}, accepting exactly
    the scenarios that reproduce the given class. *)
