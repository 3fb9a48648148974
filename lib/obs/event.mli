(** The per-run records of a simulated BSP execution and the structured
    telemetry events that carry them.

    Four facts of a run are declared once, here, below the engines:
    {!superstep} (one priced stage), {!recovery}, {!speculation} and
    {!reshuffle}. The pricer stores each record in the run's [Trace.t]
    and hands the very same value to the sinks, so the event stream and
    the trace cannot disagree on them. On top of a stage's counters a
    [Superstep] event carries the signals the trace discards: per-executor
    busy time and barrier wait, and the jittered task-skew extrema that
    explain straggler behaviour ({!executor_profile}).

    Events are plain data; the sinks decide what to do with them. The
    JSON encoding is stable and versioned by field names only — one
    object per event, suitable for JSONL streams. Field names are the
    JSON keys, except for the superstep keys noted on {!superstep}. *)

type superstep = {
  step : int;  (** -1 is the one-time graph build/partitioning stage *)
  active_edges : int;  (** triplets whose send/gather function ran *)
  messages : int;  (** messages emitted before local aggregation *)
  shuffle_groups : int;  (** distinct (vertex, partition) aggregates shuffled *)
  remote_shuffles : int;  (** shuffle groups crossing executors *)
  updated_vertices : int;
      (** vertices that ran the vertex program; JSON key ["active_vertices"] *)
  broadcast_replicas : int;  (** replica copies refreshed from masters *)
  remote_broadcasts : int;  (** replica refreshes crossing executors *)
  wire_bytes : float;  (** total scaled egress bytes across all executors *)
  compute_s : float;  (** modeled executor compute (max over executors) *)
  network_s : float;  (** modeled wire time (max over executors) *)
  overhead_s : float;  (** task dispatch + superstep barrier *)
  time_s : float;  (** max(compute, network) + overhead — shuffle overlaps compute *)
}
(** One priced stage. Its JSON adds the derived key ["local_shuffles"]
    ([shuffle_groups - remote_shuffles]). *)

type executor_profile = {
  executor_busy_s : float array;  (** per-executor jittered compute makespan *)
  barrier_wait_s : float array;
      (** per-executor idle time at the superstep barrier: the slowest
          executor's compute minus this executor's own *)
  max_task_s : float;  (** largest single jittered task in the superstep *)
  min_task_s : float;  (** smallest (often 0 when a partition is idle) *)
}
(** The telemetry-only half of a [Superstep] event; runs without a
    telemetry handle never build one. *)

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
    for — the same record the trace itemizes. *)

type fault_injected = {
  step : int;
  kind : string;  (** "crash" | "straggler" | "net" | "loss" | "preempt" *)
  executor : int;  (** -1 when the fault is cluster-wide (net) *)
  detail : string;
}

type checkpoint = { step : int; bytes : float; write_s : float }

type recovery = {
  step : int;  (** superstep at whose barrier the fault surfaced *)
  kind : string;  (** "rollback" | "lineage" | "shuffle-retry" | "preempt" *)
  executor : int;  (** the executor that crashed / lost the shuffle *)
  replayed_steps : int;  (** rollback: supersteps replayed since checkpoint *)
  lost_edges : int;  (** lineage and preempt: edges rebuilt on the replacement *)
  lost_replicas : int;  (** lineage and preempt: replica views re-broadcast *)
  wire_bytes : float;
      (** bytes moved only because of the fault (reshuffle, retransmit) —
          deliberately outside {!superstep.wire_bytes} so the wire-payload
          law over supersteps still holds on faulty runs *)
  recovery_s : float;  (** modeled time charged for this recovery *)
}

(** {2 Speculation records}

    Emitted by the engines when a [Speculation] config is attached: one
    [Speculative_launch] per clone launched at a superstep barrier,
    followed by a [Speculative_win] carrying the same record when the
    clone finished first and its results were taken. *)

type speculation = {
  step : int;  (** superstep whose barrier launched the clone *)
  executor : int;  (** the straggling executor whose tasks were cloned *)
  host : int;  (** the least-loaded executor the clone ran on *)
  cloned_partitions : int;  (** tasks re-dispatched to the host *)
  original_busy_s : float;  (** the straggler's (stretched) busy time *)
  clone_busy_s : float;
      (** the clone's finish time from barrier start: host's own busy +
          launch RPC + re-dispatch + re-shuffle + clean re-execution *)
  wire_bytes : float;
      (** the straggler's shuffle ingress, re-sent to the host — outside
          {!superstep.wire_bytes}, like {!recovery.wire_bytes} *)
  compute_s : float;
      (** compute the clone burned re-running the straggler's tasks —
          resource cost charged whether or not the clone won *)
  won : bool;  (** the clone finished first and its results were taken *)
  saved_s : float;  (** original - clone busy when won, else 0 *)
}

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
  step : int;  (** superstep before which the membership changed *)
  executors_before : int;
  executors_after : int;
  moved_partitions : int;  (** partitions whose round-robin home moved *)
  moved_bytes : float;  (** scaled resident bytes of the moved partitions *)
  rebroadcast_replicas : int;  (** vertex views re-broadcast from new homes *)
  rebroadcast_bytes : float;
      (** both byte columns are deliberately outside
          {!superstep.wire_bytes}, like recovery and speculation
          traffic, so the wire-payload law over supersteps still holds
          on elastic runs *)
  reshuffle_s : float;  (** modeled time the membership change charged *)
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
  | Superstep of superstep * executor_profile
  | Run_end of run_end
  | Fault_injected of fault_injected
  | Checkpoint of checkpoint
  | Recovery of recovery
  | Speculative_launch of speculation
  | Speculative_win of speculation
      (** only for a [won] clone; its JSON writes [step], [executor],
          [host] and [saved_s] *)
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

val skew : executor_profile -> float
(** [max_task_s /. min_task_s] — the straggler spread of one superstep:
    [infinity] when the smallest task is idle but some task worked, and
    [1.0] when every task was idle. *)

val speculation_events : speculation -> t list
(** The events one clone produces: [Speculative_launch s], then
    [Speculative_win s] when [s.won]. *)

val to_line : t -> string
(** One-line JSON rendering, the JSONL wire format. *)

val pp : Format.formatter -> t -> unit
(** Human-oriented one-line rendering used by the console sink. *)
