(** Structured telemetry events emitted by the BSP engines.

    A {!superstep} record is the observability counterpart of
    [Trace.superstep]: it is built from the {e same} counters, at the
    same point in the engine, so summing the event stream reproduces the
    run's trace aggregates exactly — the invariant the test suite
    checks. On top of the trace quantities it carries the signals the
    trace discards: total bytes on the wire, per-executor busy time and
    barrier wait, and the jittered task-skew extrema that explain
    straggler behaviour.

    Events are plain data; the sinks decide what to do with them. The
    JSON encoding is stable and versioned by field names only — one
    object per event, suitable for JSONL streams. *)

type superstep = {
  step : int;  (** -1 is the one-time graph build/partitioning stage *)
  active_vertices : int;  (** vertices that ran the vertex program *)
  active_edges : int;  (** triplets whose send/gather function ran *)
  messages : int;  (** messages emitted before local aggregation *)
  local_shuffles : int;  (** shuffle aggregates staying on their executor *)
  remote_shuffles : int;  (** shuffle aggregates crossing executors *)
  broadcast_replicas : int;  (** replica copies refreshed from masters *)
  remote_broadcasts : int;  (** replica refreshes crossing executors *)
  wire_bytes : float;  (** total scaled egress bytes across all executors *)
  executor_busy_s : float array;  (** per-executor jittered compute makespan *)
  barrier_wait_s : float array;
      (** per-executor idle time at the superstep barrier: the slowest
          executor's compute minus this executor's own *)
  max_task_s : float;  (** largest single jittered task in the superstep *)
  min_task_s : float;  (** smallest (often 0 when a partition is idle) *)
  compute_s : float;  (** modeled executor compute (max over executors) *)
  network_s : float;  (** modeled wire time (max over executors) *)
  overhead_s : float;  (** task dispatch + superstep barrier *)
  time_s : float;  (** max(compute, network) + overhead *)
}

type run_end = {
  label : string;  (** engine or algorithm identifier, e.g. ["pregel"] *)
  outcome : string;
      (** ["completed"], ["max-supersteps"], ["out-of-memory"] or
          ["aborted"] *)
  supersteps : int;  (** compute supersteps recorded (build stage excluded) *)
  total_s : float;  (** simulated job time including load, checkpoints, recovery *)
  load_s : float;
  checkpoint_s : float;
  recovery_s : float;  (** total time spent recovering from injected faults *)
  total_messages : int;
  total_remote : int;  (** remote shuffles + remote broadcasts, all steps *)
  total_wire_bytes : float;
}

(** {2 Fault-injection records}

    Emitted by the engines when a [Faults] schedule is attached: one
    {!fault_injected} per fault firing, one {!checkpoint} per superstep
    checkpoint written, one {!recovery} per recovery the engine paid
    for. The records mirror the trace's own recovery bookkeeping
    field-for-field, so event aggregates reconcile exactly. *)

type fault_injected = {
  step : int;
  kind : string;  (** "crash" | "straggler" | "net" | "loss" *)
  executor : int;  (** -1 when the fault is cluster-wide (net) *)
  detail : string;
}

type checkpoint = { step : int; bytes : float; write_s : float }

type recovery = {
  step : int;
  kind : string;  (** "rollback" | "lineage" | "shuffle-retry" *)
  executor : int;
  replayed_steps : int;
  lost_edges : int;
  lost_replicas : int;
  wire_bytes : float;  (** bytes moved only because of the fault *)
  recovery_s : float;
}

(** {2 Speculation records}

    Emitted by the engines when a [Speculation] config is attached: one
    {!speculative_launch} per clone launched at a superstep barrier,
    followed by a {!speculative_win} when the clone finished first and
    its results were taken. The fields mirror [Trace.speculation]
    exactly, so event counts and sums reconcile with the trace. *)

type speculative_launch = {
  step : int;
  executor : int;  (** the straggler whose tasks were cloned *)
  host : int;  (** the least-loaded executor hosting the clone *)
  cloned_partitions : int;
  original_busy_s : float;
  clone_busy_s : float;
  wire_bytes : float;  (** re-shuffled ingress, outside the wire-payload law *)
  compute_s : float;  (** extra compute burned by the clone *)
}

type speculative_win = { step : int; executor : int; host : int; saved_s : float }

(** {2 Workload-engine records}

    The [lib/workload] engine narrates a multi-job simulation through
    the same event stream: one {!job_submit} per generated job, a
    {!job_start}/{!job_end} pair per execution, and one {!cache_op} per
    partitioning-cache transition. All timestamps are simulated cluster
    seconds on the workload clock (not per-run trace time). The records
    reconcile with the engine's own per-job accounting — the invariant
    {!Cutfit_workload} checks. *)

type job_submit = {
  job_id : int;
  algorithm : string;  (** "PR", "CC", "TR" or "SSSP" *)
  dataset : string;  (** dataset analogue name *)
  num_partitions : int;
  arrival_s : float;  (** submission instant on the simulated clock *)
}

type job_start = {
  job_id : int;
  strategy : string;  (** the partitioning strategy chosen for the job *)
  cache_hit : bool;  (** the partitioning was served from the cache *)
  start_s : float;  (** instant an executor slot admitted the job *)
  queue_s : float;  (** [start_s -. arrival_s] *)
}

type job_end = {
  job_id : int;
  outcome : string;  (** as {!run_end.outcome} *)
  partition_s : float;  (** load + partition build; 0 on a cache hit *)
  exec_s : float;  (** compute supersteps + checkpoints *)
  finish_s : float;  (** instant the slot freed *)
}

type job_retry = {
  job_id : int;
  attempt : int;  (** the attempt number that just failed (1-based) *)
  delay_s : float;  (** requeue backoff added before the next attempt *)
  resubmit_s : float;  (** simulated instant the job re-enters the queue *)
}

type job_shed = {
  job_id : int;
  at_s : float;  (** simulated instant the shed decision fired *)
  queue_depth : int;  (** admission queue depth at that instant *)
  policy : string;  (** "reject" | "drop-oldest" *)
}

type deadline_exceeded = {
  job_id : int;
  deadline_s : float;  (** the job's absolute SLO deadline *)
  overshoot_s : float;  (** how far past the deadline the cancel landed *)
  started : bool;  (** false: culled from the queue; true: cancelled mid-run *)
}

type breaker_open = {
  dataset : string;
  strategy : string;
  at_s : float;
  failures : int;  (** consecutive failures that tripped the breaker *)
}

type breaker_close = { dataset : string; strategy : string; at_s : float }

type cache_op = {
  op : string;
      (** ["hit"], ["miss"], ["insert"], ["evict"], ["invalidate"] (entry
          lost to a cluster restart) or ["reject"] *)
  graph : string;
  strategy : string;
  num_partitions : int;
  bytes : float;  (** modeled resident bytes of the touched partitioning *)
  occupancy_bytes : float;  (** cache occupancy after the operation *)
  entries : int;  (** live entries after the operation *)
  at_s : float;  (** simulated instant of the operation *)
}

(** {2 Dynamic-graph records}

    The dynamic-graph subsystem ([lib/dynamic] and the workload
    engine's mutation interleaving) narrates each mutation batch and
    the priced refresh-vs-rebuild decision taken on it. *)

type mutation_batch = {
  batch : int;  (** 1-based batch number *)
  graph : string;  (** dataset name; "-" outside the workload engine *)
  inserts : int;
  deletes : int;
  edges_before : int;
  edges_after : int;
  at_s : float;  (** simulated instant; 0 for the standalone driver *)
}

type repartition = {
  batch : int;
  graph : string;
  choice : string;  (** "refresh" | "rebuild" *)
  refresh_s : float;  (** priced incremental-refresh cost *)
  rebuild_s : float;  (** priced full-rebuild cost *)
  placed_edges : int;  (** inserted edges placed online *)
  repaired_vertices : int;  (** vertices repaired after deletes *)
  moved_replicas : int;  (** replica-set entries to re-broadcast *)
  at_s : float;
}

type executor_join = {
  step : int;
      (** engines: the superstep before which the join landed; workload:
          the scale spec's integer time *)
  count : int;
  executors : int;  (** live membership after the join *)
}

type executor_leave = { step : int; count : int; executors : int }

type reshuffle = {
  step : int;
  executors_before : int;
  executors_after : int;
  moved_partitions : int;  (** partitions whose home executor changed *)
  moved_bytes : float;
      (** resident bytes re-shipped; outside the superstep wire-payload
          law, like recovery traffic *)
  rebroadcast_replicas : int;
  rebroadcast_bytes : float;
  reshuffle_s : float;
}

type tenant_throttle = {
  tenant : string;
  job_id : int;
  at_s : float;
  pending : int;  (** the tenant's pending jobs when the quota fired *)
}

type t =
  | Run_start of { label : string }
      (** segments multi-run streams (e.g. [compare] traces) *)
  | Superstep of superstep
  | Run_end of run_end
  | Fault_injected of fault_injected
  | Checkpoint of checkpoint
  | Recovery of recovery
  | Speculative_launch of speculative_launch
  | Speculative_win of speculative_win
  | Job_submit of job_submit
  | Job_start of job_start
  | Job_end of job_end
  | Job_retry of job_retry
  | Job_shed of job_shed
  | Deadline_exceeded of deadline_exceeded
  | Breaker_open of breaker_open
  | Breaker_close of breaker_close
  | Cache_op of cache_op
  | Mutation_batch of mutation_batch
  | Repartition of repartition
  | Executor_join of executor_join
  | Executor_leave of executor_leave
  | Reshuffle of reshuffle
  | Tenant_throttle of tenant_throttle

val skew : superstep -> float
(** [max_task_s /. min_task_s], or [infinity] when the smallest task is
    idle — the straggler spread of one superstep. *)

val to_line : t -> string
(** One-line JSON rendering, the JSONL wire format. *)

val pp : Format.formatter -> t -> unit
(** Human-oriented one-line rendering used by the console sink. *)
