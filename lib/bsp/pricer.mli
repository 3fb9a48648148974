(** The superstep pricer every simulated engine shares.

    The paper prices a run as the sum of its superstep costs, and the
    price depends only on what a superstep did — the work each partition
    performed, the bytes each executor shipped and the shuffle
    aggregates it formed — not on which engine produced those counts.
    An engine therefore executes a step (Pregel's message loop, GAS's
    gather/apply, one triangle-counting stage), fills a {!counts}
    record, and hands it to {!superstep}.

    The pricer owns everything else about a run: the elastic runtime and
    partition placement ({!exec_of}), the fault session and its
    per-step plans, speculative re-execution, checkpoints and the
    driver-metadata limit they reset, crash, loss and preemption
    recovery, the one-time build stage, the [Superstep], [Fault_injected],
    [Speculative_*], [Recovery], [Checkpoint], [Executor_join]/[leave]
    and [Reshuffle] telemetry events, and finally the {!Trace.t}, its
    [Run_end] event and the [bsp.*] metrics. Each superstep, recovery,
    speculation and reshuffle record is stored once: the trace keeps it
    and the matching event carries the same value. Engines keep their
    vertex programs and their own stop rules.

    With no faults, speculation, scale events or heterogeneous hosts the
    runtime is inert: placement is the static round robin [p mod executors] and
    every multiplier is exactly 1.0. *)

type counts = {
  work : float array;  (** single-core seconds per partition, before jitter and scale *)
  bytes_out : float array;  (** unscaled egress bytes per executor slot *)
  bytes_in : float array;  (** unscaled ingress bytes per executor slot *)
  active_edges : int;
  messages : int;
  shuffle_groups : int;
  remote_shuffles : int;
  updated : int;  (** vertices whose program ran (the event's active vertices) *)
  bcast : int;  (** replica refreshes *)
  remote_bcast : int;  (** replica refreshes crossing executors *)
}
(** What one step did — the pricer's only per-step input. *)

type what_if = {
  checkpoint_every : int option;
      (** write the materialized graph to storage every k supersteps,
          paying the write time but truncating the driver lineage (the
          standard Spark mitigation for the long-run out-of-memory
          failures the paper hit); rollback recovery replays from the
          last checkpoint *)
  faults : Faults.config option;
      (** a deterministic {!Faults} schedule: stragglers and degraded
          bandwidth stretch the affected steps, transient shuffle
          losses and executor crashes append itemized
          {!Trace.recovery} records (rollback or lineage rebuild, per
          the config's mode), and crashes beyond the failure budget end
          the run [Aborted] *)
  speculation : Speculation.config option;
      (** {!Speculation} straggler mitigation at every compute step:
          when the slowest executor's busy time exceeds the configured
          multiple of the median, its tasks are cloned onto the
          least-loaded executor and the earlier finisher wins, each
          clone an itemized {!Trace.speculation} record *)
  elastic : Elastic.config option;
      (** a deterministic {!Elastic} scale-event schedule: executors
          join and leave before the scheduled compute steps (each
          membership change re-homes the moved partitions as a priced
          {!Trace.reshuffle}, outside the steps' wire accounting), and
          spot preemptions recover like crashes *)
  hetero : Elastic.hetero option;
      (** per-executor speed and bandwidth multipliers that divide busy
          time and scale egress bandwidth *)
}
(** The cluster perturbations one run is priced under — the one
    what-if value every engine, algorithm and pipeline passes through
    unchanged. Every field perturbs only the time accounting (and, for
    [elastic] and [hetero], locality): the computed values, counters
    and superstep wire bytes stay bit-identical to the {!static} run,
    which the [faults] and [elastic] sanitizer suites enforce. *)

val static : what_if
(** Every field [None]: a fixed, homogeneous, fault-free cluster with no
    checkpoints. *)

type t
(** One run being priced. *)

val create :
  ?scale:float ->
  ?cost:Cost_model.t ->
  ?what_if:what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  label:string ->
  state_bytes:int ->
  cluster:Cluster.t ->
  Pgraph.t ->
  t
(** [label] names the run in its [Run_end] event; [state_bytes] is the
    per-vertex state size that checkpoints, re-shuffles and replica
    re-broadcasts ship. Defaults: scale 1.0, {!Cost_model.default},
    {!static}.
    @raise Invalid_argument if [what_if.checkpoint_every < 1]. *)

val runtime : t -> Elastic.runtime
(** The run's elastic runtime: {!Elastic.exec_of} on it is the executor
    currently hosting a partition (round robin over the live
    membership). *)

val build : t -> unit
(** Price the one-time graph build as step [-1]. *)

val begin_step : t -> step:int -> counts
(** Apply the scale events scheduled before compute superstep [step]
    (priced re-shuffles, spot preemptions) and return zeroed counts with
    arrays sized for this run. The scale-event grammar admits no event
    before step 1. *)

val superstep : t -> step:int -> counts -> Trace.outcome option
(** Price one step under the fault plan for [step], record it, then take
    a checkpoint when the cadence is due ([step >= 1]) and handle an
    executor crash. Speculation is only evaluated at [step >= 1].
    Returns [Some Out_of_memory] when the driver-metadata limit tripped
    and no checkpoint reset it, [Some Aborted] when a crash exceeded the
    failure budget, [None] otherwise. *)

val finish : t -> outcome:Trace.outcome -> peak_executor_bytes:float -> Trace.t
(** Assemble the trace, record the [bsp.*] metrics and emit [Run_end]. *)
