(** Deterministic fault injection for the BSP engines.

    A fault schedule is parsed from a compact spec string, realized
    against a concrete cluster (unpinned executors are chosen by seeded
    draws from [lib/prng]), and consulted by {!Pricer} once per
    superstep; the pricer also prices every recovery. Faults only perturb the {e time} accounting — slowdowns,
    degraded bandwidth, retransmissions, checkpoint/lineage recovery —
    never the vertex values, which is what makes the recovery
    equivalence invariant ([Fault_check]) provable bit-for-bit.

    Spec grammar (comma-separated items):
    {v
    crash@K[:eE]              executor E crashes at superstep K's barrier
    straggler@K[-L][:eE][:xF] executor E runs xF slower over steps K..L (default x4)
    net@K[-L][:xF]            cluster bandwidth multiplied by F over K..L (default x0.25)
    loss@K[:eE][:rN]          executor E's shuffle lost at step K, N retransmissions (default 1)
    rand@R                    each step >= 1, with probability R, one random fault fires
    v}

    All steps are compute supersteps ([>= 1]); the build stage and
    superstep 0 are never faulted. *)

type mode =
  | Rollback  (** restart all executors from the last checkpoint, replay *)
  | Lineage  (** rebuild only the lost partitions from the partitioner assignment *)

type item =
  | Crash of { step : int; executor : int option }
  | Straggler of { from_step : int; to_step : int; executor : int option; factor : float }
  | Net of { from_step : int; to_step : int; factor : float }
  | Loss of { step : int; executor : int option; retries : int }
  | Rand of { rate : float }

type config = {
  items : item list;
  seed : int;
  max_failures : int;  (** crashes beyond this budget abort the run *)
  mode : mode;
}

val to_spec : item list -> string
(** Canonical inverse of {!config}'s parse: options at their documented
    defaults are omitted, so the result is the minimal spec string with
    [(config (to_spec items)).items = items]. *)

val config : ?seed:int -> ?max_failures:int -> ?mode:mode -> string -> config
(** Parse a spec string into a config. Defaults: [seed=42],
    [max_failures=2], [mode=Rollback]. Raises {!Spec_error.Error}. *)

val mode_name : mode -> string
val mode_of_name : string -> mode
(** Raises {!Spec_error.Error} on unknown names. *)

val describe : config -> string

(** {1 Realized schedules} *)

type session
(** A config realized against a concrete executor count: unpinned
    executors resolved by seeded draws, plus the mutable crash budget. *)

val session : executors:int -> config -> session
val session_config : session -> config

val note_crash : session -> [ `Recover | `Abort ]
(** Record one executor loss against the budget. [`Abort] once the count
    exceeds [max_failures]. *)

type announcement = {
  fault_kind : string;  (** "crash" | "straggler" | "net" | "loss" *)
  fault_executor : int;  (** -1 when the fault is cluster-wide (net) *)
  detail : string;
}

type plan = {
  compute_factor : int -> float;
      (** per-executor busy-time multiplier this superstep (>= 1) *)
  network_factor : float;  (** cluster bandwidth multiplier (<= 1) *)
  loss : (int * int) option;  (** (executor, retries) transient shuffle loss *)
  crash : int option;  (** executor lost at this superstep's barrier *)
  announce : announcement list;
      (** faults firing {e at} this step, for [Fault_injected] events —
          window faults announce once, at their first step *)
}

val neutral : plan
(** The no-fault plan (identity factors, nothing fired). *)

val plan : session -> step:int -> plan
(** The realized plan for one superstep. Stateless per step: random
    draws are keyed on (seed, item, step), so call order and replay
    never change the schedule. *)
