(** Seeded chaos campaigns: generate scenarios {!Gen}, run each
    fork-isolated under a budget {!Runner}, shrink every failure to a
    minimal repro {!Shrink}, and digest the whole campaign for
    bit-reproducibility. *)

type entry = {
  index : int;  (** scenario index within the campaign *)
  scenario : Scenario.t;
  outcome : Runner.outcome;
  shrunk : Scenario.t option;
      (** the minimized still-failing repro, present iff the outcome is a
          failure class and shrinking was enabled *)
  duration_s : float;  (** wall clock; excluded from {!digest}/{!report_json} *)
}

type t = { seed : int; count : int; budget_s : float; entries : entry list }

val run :
  ?budget_s:float ->
  ?shrink:bool ->
  ?progress:(entry -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  t
(** Run scenarios [0 .. count-1] of the seed's campaign sequentially
    (default budget 30 s per scenario, shrinking on). [progress] fires
    after each scenario — the CLI's printing hook; this library never
    prints. A hung scenario is recorded and the campaign continues.
    @raise Invalid_argument if [count < 0]. *)

val failures : t -> entry list
(** Entries with outcome [Violated] or [Crashed] — the exit-code-1
    condition. [Hung] entries are reported separately and do not fail a
    campaign. *)

val hung : t -> entry list

val repro_command : entry -> string
(** ["cutfit chaos --repro '<spec>'"] — copy-pasteable; the spec is the
    shrunk one when present, else the original. *)

val digest : t -> string
(** MD5 hex over the deterministic campaign lines (specs, outcomes,
    violation classes, shrunk specs — never durations): two runs of the
    same seeded campaign digest identically. *)

val report_json : t -> Cutfit_obs.Json.t
(** The campaign report (CHAOS_report.json shape): seed, counts, digest,
    one record per scenario. Deterministic for a given seed/count. *)

val artifact_json : entry -> Cutfit_obs.Json.t
(** Standalone repro artifact for one failing entry: original and shrunk
    specs, failure class, violations, repro command. *)
