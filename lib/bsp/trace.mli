(** Execution traces of simulated BSP runs.

    Every superstep records the work and message quantities the engine
    actually produced, together with the modeled time decomposition. The
    trace is what the experiment harness correlates against the static
    partitioning metrics. *)

type superstep = {
  step : int;  (** -1 is the one-time graph build/partitioning stage *)
  active_edges : int;  (** triplets whose send function ran *)
  messages : int;  (** messages emitted (before local aggregation) *)
  shuffle_groups : int;  (** distinct (vertex, partition) aggregates shuffled *)
  remote_shuffles : int;  (** shuffle groups crossing executors *)
  updated_vertices : int;  (** vertices that ran the vertex program *)
  broadcast_replicas : int;  (** replica copies refreshed from masters *)
  remote_broadcasts : int;  (** replica refreshes crossing executors *)
  wire_bytes : float;
      (** total scaled egress bytes across all executors this superstep —
          the byte total the telemetry layer reconciles against *)
  compute_s : float;  (** modeled executor compute (max over executors) *)
  network_s : float;  (** modeled wire time (max over executors) *)
  overhead_s : float;  (** task dispatch + superstep barrier *)
  time_s : float;  (** max(compute, network) + overhead — shuffle overlaps compute *)
}

type recovery = {
  at_step : int;  (** superstep at whose barrier the fault surfaced *)
  kind : string;  (** "rollback" | "lineage" | "shuffle-retry" | "preempt" *)
  executor : int;  (** the executor that crashed / lost the shuffle *)
  replayed_steps : int;  (** rollback: supersteps replayed since checkpoint *)
  lost_edges : int;  (** lineage: edges rebuilt on the replacement executor *)
  lost_replicas : int;  (** lineage: replica views re-broadcast *)
  recovery_wire_bytes : float;
      (** bytes moved only because of the fault (reshuffle, retransmit) —
          deliberately outside {!superstep.wire_bytes} so the wire-payload
          law over supersteps still holds on faulty runs *)
  recovery_s : float;  (** modeled time charged for this recovery *)
}

type speculation = {
  at_step : int;  (** superstep whose barrier launched the clone *)
  executor : int;  (** the straggling executor whose tasks were cloned *)
  host : int;  (** the least-loaded executor the clone ran on *)
  cloned_partitions : int;  (** tasks re-dispatched to the host *)
  original_busy_s : float;  (** the straggler's (stretched) busy time *)
  clone_busy_s : float;
      (** the clone's finish time from barrier start: host's own busy +
          launch RPC + re-dispatch + re-shuffle + clean re-execution *)
  speculative_compute_s : float;
      (** compute the clone burned re-running the straggler's tasks —
          resource cost charged whether or not the clone won *)
  speculative_wire_bytes : float;
      (** the straggler's shuffle ingress, re-sent to the host —
          deliberately outside {!superstep.wire_bytes} so the
          wire-payload law over supersteps still holds (same convention
          as {!recovery.recovery_wire_bytes}) *)
  won : bool;  (** the clone finished first and its results were taken *)
  saved_s : float;  (** original - clone busy when won, else 0 *)
}

type reshuffle = {
  resh_step : int;  (** superstep before which the membership changed *)
  executors_before : int;
  executors_after : int;
  moved_partitions : int;  (** partitions whose round-robin home moved *)
  moved_bytes : float;  (** scaled resident bytes of the moved partitions *)
  rebroadcast_replicas : int;  (** vertex views re-broadcast from new homes *)
  rebroadcast_bytes : float;
      (** both byte columns are deliberately outside
          {!superstep.wire_bytes}, the same carve-out as
          {!recovery.recovery_wire_bytes} and speculation traffic, so the
          wire-payload law over supersteps still holds on elastic runs *)
  reshuffle_s : float;  (** modeled time the membership change charged *)
}

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
  recovery_s : float;  (** sum of {!recovery.recovery_s} *)
  recoveries : recovery list;  (** chronological *)
  faults_injected : int;  (** faults the schedule fired during this run *)
  speculations : speculation list;  (** chronological *)
  speculation_s : float;
      (** sum of {!speculation.speculative_compute_s} — extra cluster
          compute paid for clones. Deliberately NOT part of [total_s]:
          clones run in parallel with the straggler, so their win (or
          waste) is already reflected in each superstep's [time_s]. *)
  reshuffles : reshuffle list;  (** chronological membership changes *)
  reshuffle_s : float;  (** sum of {!reshuffle.reshuffle_s} *)
  total_s : float;
      (** load + checkpoints + recoveries + reshuffles + all supersteps *)
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
(** Sum of {!superstep.wire_bytes} over every recorded stage. Recovery
    traffic is accounted separately in {!recovery.recovery_wire_bytes}. *)

val total_network_s : t -> float
val total_compute_s : t -> float

val num_recoveries : t -> int

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
