(** Execution traces of simulated BSP runs.

    Every superstep records the work and message quantities the engine
    actually produced, together with the modeled time decomposition. The
    trace is what the experiment harness correlates against the static
    partitioning metrics. *)

(** The per-stage and itemized records are declared once, in
    {!Cutfit_obs.Event}: the pricer stores a record here and hands the
    same value to the telemetry sinks. *)

type superstep = Cutfit_obs.Event.superstep
type recovery = Cutfit_obs.Event.recovery
type speculation = Cutfit_obs.Event.speculation
type reshuffle = Cutfit_obs.Event.reshuffle

type outcome =
  | Completed
  | Max_supersteps  (** stopped by the iteration cap (normal for PR/CC) *)
  | Out_of_memory  (** the memory model tripped; the run is invalid *)
  | Aborted  (** executor failures exceeded the fault budget *)

type t = {
  supersteps : superstep list;  (** chronological *)
  load_s : float;  (** reading the dataset from the storage tier *)
  checkpoint_s : float;  (** time spent writing lineage checkpoints *)
  checkpoints : int;  (** how many checkpoints were taken *)
  recoveries : recovery list;  (** chronological *)
  faults_injected : int;  (** faults the schedule fired during this run *)
  speculations : speculation list;  (** chronological *)
  reshuffles : reshuffle list;  (** chronological membership changes *)
  total_s : float;
      (** load + checkpoints + {!recovery_s} + {!reshuffle_s} + all
          supersteps, folded in that order *)
  outcome : outcome;
  peak_executor_bytes : float;
      (** largest per-executor resident working set; only the Pregel
          engine models executor memory, so GAS and triangle-counting
          runs report [0.0] *)
  driver_meta_bytes : float;
}

val num_supersteps : t -> int
val total_messages : t -> int

val total_remote_messages : t -> int
(** Remote shuffle aggregates plus remote replica refreshes, summed over
    every recorded stage. *)

val total_wire_bytes : t -> float
(** Sum of {!Cutfit_obs.Event.superstep.wire_bytes} over every recorded
    stage. Recovery traffic is accounted separately in
    {!Cutfit_obs.Event.recovery.wire_bytes}. *)

val total_network_s : t -> float
val total_compute_s : t -> float

val num_recoveries : t -> int

(** The itemized sums fold their records from [0.0] in record order;
    the trace stores the records, never a copy of the sum. *)

val recovery_s : t -> float
(** Sum of {!Cutfit_obs.Event.recovery.recovery_s}. *)

val speculation_s : t -> float
(** Sum of {!Cutfit_obs.Event.speculation.compute_s}: extra cluster
    compute paid for clones. Deliberately NOT part of [total_s]: clones
    run in parallel with the straggler, so their win (or waste) is
    already reflected in each superstep's [time_s]. *)

val reshuffle_s : t -> float
(** Sum of {!Cutfit_obs.Event.reshuffle.reshuffle_s}. *)

val num_speculations : t -> int

val num_reshuffles : t -> int

val total_reshuffle_wire_bytes : t -> float
(** Sum of moved + rebroadcast bytes over every membership change; like
    recovery traffic, outside {!total_wire_bytes}. *)

val completed : t -> bool
(** [true] unless the run ended in {!Out_of_memory} or {!Aborted}. *)

val outcome_name : outcome -> string
(** Stable lowercase name ("completed", "max-supersteps",
    "out-of-memory", "aborted") used in telemetry exports. *)

val pp_summary : Format.formatter -> t -> unit
