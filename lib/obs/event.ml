type superstep = {
  step : int;
  active_edges : int;
  messages : int;
  shuffle_groups : int;
  remote_shuffles : int;
  updated_vertices : int;
  broadcast_replicas : int;
  remote_broadcasts : int;
  wire_bytes : float;
  compute_s : float;
  network_s : float;
  overhead_s : float;
  time_s : float;
}

type executor_profile = {
  executor_busy_s : float array;
  barrier_wait_s : float array;
  max_task_s : float;
  min_task_s : float;
}

type run_end = {
  label : string;
  outcome : string;
  supersteps : int;
  total_s : float;
  load_s : float;
  checkpoint_s : float;
  recovery_s : float;
  total_messages : int;
  total_remote : int;
  total_wire_bytes : float;
}

type fault_injected = {
  step : int;
  kind : string;  (** "crash" | "straggler" | "net" | "loss" | "preempt" *)
  executor : int;  (** -1 when cluster-wide *)
  detail : string;
}

type checkpoint = { step : int; bytes : float; write_s : float }

type recovery = {
  step : int;
  kind : string;  (** "rollback" | "lineage" | "shuffle-retry" | "preempt" *)
  executor : int;
  replayed_steps : int;
  lost_edges : int;
  lost_replicas : int;
  wire_bytes : float;
  recovery_s : float;
}

type speculation = {
  step : int;
  executor : int;  (** the straggler whose tasks were cloned *)
  host : int;  (** the least-loaded executor hosting the clone *)
  cloned_partitions : int;
  original_busy_s : float;
  clone_busy_s : float;
  wire_bytes : float;  (** re-shuffled ingress, outside the wire-payload law *)
  compute_s : float;  (** extra compute burned by the clone *)
  won : bool;
  saved_s : float;
}

type job_retry = { job_id : int; attempt : int; delay_s : float; resubmit_s : float }

type job_shed = {
  job_id : int;
  at_s : float;
  queue_depth : int;  (** admission queue depth when the shed decision fired *)
  policy : string;  (** "reject" | "drop-oldest" *)
}

type deadline_exceeded = {
  job_id : int;
  deadline_s : float;  (** the job's absolute SLO deadline *)
  overshoot_s : float;  (** how far past the deadline the job was cancelled *)
  started : bool;  (** false: culled from the queue; true: cancelled mid-run *)
}

type breaker_open = { dataset : string; strategy : string; at_s : float; failures : int }
type breaker_close = { dataset : string; strategy : string; at_s : float }

type job_submit = {
  job_id : int;
  algorithm : string;
  dataset : string;
  num_partitions : int;
  arrival_s : float;
}

type job_start = {
  job_id : int;
  strategy : string;
  cache_hit : bool;
  start_s : float;
  queue_s : float;
}

type job_end = {
  job_id : int;
  outcome : string;
  partition_s : float;
  exec_s : float;
  finish_s : float;
}

type cache_op = {
  op : string;
  graph : string;
  strategy : string;
  num_partitions : int;
  bytes : float;
  occupancy_bytes : float;
  entries : int;
  at_s : float;
}

type mutation_batch = {
  batch : int;
  graph : string;  (** dataset name; "-" outside the workload engine *)
  inserts : int;
  deletes : int;
  edges_before : int;
  edges_after : int;
  at_s : float;
}

type repartition = {
  batch : int;
  graph : string;
  choice : string;  (** "refresh" | "rebuild" *)
  refresh_s : float;
  rebuild_s : float;
  placed_edges : int;
  repaired_vertices : int;
  moved_replicas : int;
  at_s : float;
}

type executor_join = {
  step : int;  (** engines: superstep; workload: the spec's integer time *)
  count : int;
  executors : int;  (** live membership after the join *)
}

type executor_leave = { step : int; count : int; executors : int }

type reshuffle = {
  step : int;
  executors_before : int;
  executors_after : int;
  moved_partitions : int;
  moved_bytes : float;  (** outside the wire-payload law, like recovery traffic *)
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
  | Superstep of superstep * executor_profile
  | Run_end of run_end
  | Fault_injected of fault_injected
  | Checkpoint of checkpoint
  | Recovery of recovery
  | Speculative_launch of speculation
  | Speculative_win of speculation
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

let skew p =
  if p.min_task_s > 0.0 then p.max_task_s /. p.min_task_s
  else if p.max_task_s > 0.0 then Float.infinity
  else 1.0

let speculation_events s =
  Speculative_launch s :: (if s.won then [ Speculative_win s ] else [])

(* --- JSON --- *)

let floats arr = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) arr))

let to_json = function
  | Run_start { label } ->
      Json.Obj [ ("type", Json.String "run_start"); ("label", Json.String label) ]
  | Superstep (s, p) ->
      Json.Obj
        [
          ("type", Json.String "superstep");
          ("step", Json.Int s.step);
          ("active_vertices", Json.Int s.updated_vertices);
          ("active_edges", Json.Int s.active_edges);
          ("messages", Json.Int s.messages);
          ("local_shuffles", Json.Int (s.shuffle_groups - s.remote_shuffles));
          ("remote_shuffles", Json.Int s.remote_shuffles);
          ("broadcast_replicas", Json.Int s.broadcast_replicas);
          ("remote_broadcasts", Json.Int s.remote_broadcasts);
          ("wire_bytes", Json.Float s.wire_bytes);
          ("executor_busy_s", floats p.executor_busy_s);
          ("barrier_wait_s", floats p.barrier_wait_s);
          ("max_task_s", Json.Float p.max_task_s);
          ("min_task_s", Json.Float p.min_task_s);
          ("compute_s", Json.Float s.compute_s);
          ("network_s", Json.Float s.network_s);
          ("overhead_s", Json.Float s.overhead_s);
          ("time_s", Json.Float s.time_s);
        ]
  | Run_end r ->
      Json.Obj
        [
          ("type", Json.String "run_end");
          ("label", Json.String r.label);
          ("outcome", Json.String r.outcome);
          ("supersteps", Json.Int r.supersteps);
          ("total_s", Json.Float r.total_s);
          ("load_s", Json.Float r.load_s);
          ("checkpoint_s", Json.Float r.checkpoint_s);
          ("recovery_s", Json.Float r.recovery_s);
          ("total_messages", Json.Int r.total_messages);
          ("total_remote", Json.Int r.total_remote);
          ("total_wire_bytes", Json.Float r.total_wire_bytes);
        ]
  | Fault_injected f ->
      Json.Obj
        [
          ("type", Json.String "fault_injected");
          ("step", Json.Int f.step);
          ("kind", Json.String f.kind);
          ("executor", Json.Int f.executor);
          ("detail", Json.String f.detail);
        ]
  | Checkpoint c ->
      Json.Obj
        [
          ("type", Json.String "checkpoint");
          ("step", Json.Int c.step);
          ("bytes", Json.Float c.bytes);
          ("write_s", Json.Float c.write_s);
        ]
  | Recovery r ->
      Json.Obj
        [
          ("type", Json.String "recovery");
          ("step", Json.Int r.step);
          ("kind", Json.String r.kind);
          ("executor", Json.Int r.executor);
          ("replayed_steps", Json.Int r.replayed_steps);
          ("lost_edges", Json.Int r.lost_edges);
          ("lost_replicas", Json.Int r.lost_replicas);
          ("wire_bytes", Json.Float r.wire_bytes);
          ("recovery_s", Json.Float r.recovery_s);
        ]
  | Speculative_launch s ->
      Json.Obj
        [
          ("type", Json.String "speculative_launch");
          ("step", Json.Int s.step);
          ("executor", Json.Int s.executor);
          ("host", Json.Int s.host);
          ("cloned_partitions", Json.Int s.cloned_partitions);
          ("original_busy_s", Json.Float s.original_busy_s);
          ("clone_busy_s", Json.Float s.clone_busy_s);
          ("wire_bytes", Json.Float s.wire_bytes);
          ("compute_s", Json.Float s.compute_s);
        ]
  | Speculative_win s ->
      Json.Obj
        [
          ("type", Json.String "speculative_win");
          ("step", Json.Int s.step);
          ("executor", Json.Int s.executor);
          ("host", Json.Int s.host);
          ("saved_s", Json.Float s.saved_s);
        ]
  | Job_shed j ->
      Json.Obj
        [
          ("type", Json.String "job_shed");
          ("job_id", Json.Int j.job_id);
          ("at_s", Json.Float j.at_s);
          ("queue_depth", Json.Int j.queue_depth);
          ("policy", Json.String j.policy);
        ]
  | Deadline_exceeded d ->
      Json.Obj
        [
          ("type", Json.String "deadline_exceeded");
          ("job_id", Json.Int d.job_id);
          ("deadline_s", Json.Float d.deadline_s);
          ("overshoot_s", Json.Float d.overshoot_s);
          ("started", Json.Bool d.started);
        ]
  | Breaker_open b ->
      Json.Obj
        [
          ("type", Json.String "breaker_open");
          ("dataset", Json.String b.dataset);
          ("strategy", Json.String b.strategy);
          ("at_s", Json.Float b.at_s);
          ("failures", Json.Int b.failures);
        ]
  | Breaker_close b ->
      Json.Obj
        [
          ("type", Json.String "breaker_close");
          ("dataset", Json.String b.dataset);
          ("strategy", Json.String b.strategy);
          ("at_s", Json.Float b.at_s);
        ]
  | Job_submit j ->
      Json.Obj
        [
          ("type", Json.String "job_submit");
          ("job_id", Json.Int j.job_id);
          ("algorithm", Json.String j.algorithm);
          ("dataset", Json.String j.dataset);
          ("num_partitions", Json.Int j.num_partitions);
          ("arrival_s", Json.Float j.arrival_s);
        ]
  | Job_start j ->
      Json.Obj
        [
          ("type", Json.String "job_start");
          ("job_id", Json.Int j.job_id);
          ("strategy", Json.String j.strategy);
          ("cache_hit", Json.Bool j.cache_hit);
          ("start_s", Json.Float j.start_s);
          ("queue_s", Json.Float j.queue_s);
        ]
  | Job_end j ->
      Json.Obj
        [
          ("type", Json.String "job_end");
          ("job_id", Json.Int j.job_id);
          ("outcome", Json.String j.outcome);
          ("partition_s", Json.Float j.partition_s);
          ("exec_s", Json.Float j.exec_s);
          ("finish_s", Json.Float j.finish_s);
        ]
  | Job_retry j ->
      Json.Obj
        [
          ("type", Json.String "job_retry");
          ("job_id", Json.Int j.job_id);
          ("attempt", Json.Int j.attempt);
          ("delay_s", Json.Float j.delay_s);
          ("resubmit_s", Json.Float j.resubmit_s);
        ]
  | Cache_op c ->
      Json.Obj
        [
          ("type", Json.String "cache_op");
          ("op", Json.String c.op);
          ("graph", Json.String c.graph);
          ("strategy", Json.String c.strategy);
          ("num_partitions", Json.Int c.num_partitions);
          ("bytes", Json.Float c.bytes);
          ("occupancy_bytes", Json.Float c.occupancy_bytes);
          ("entries", Json.Int c.entries);
          ("at_s", Json.Float c.at_s);
        ]
  | Mutation_batch m ->
      Json.Obj
        [
          ("type", Json.String "mutation_batch");
          ("batch", Json.Int m.batch);
          ("graph", Json.String m.graph);
          ("inserts", Json.Int m.inserts);
          ("deletes", Json.Int m.deletes);
          ("edges_before", Json.Int m.edges_before);
          ("edges_after", Json.Int m.edges_after);
          ("at_s", Json.Float m.at_s);
        ]
  | Repartition r ->
      Json.Obj
        [
          ("type", Json.String "repartition");
          ("batch", Json.Int r.batch);
          ("graph", Json.String r.graph);
          ("choice", Json.String r.choice);
          ("refresh_s", Json.Float r.refresh_s);
          ("rebuild_s", Json.Float r.rebuild_s);
          ("placed_edges", Json.Int r.placed_edges);
          ("repaired_vertices", Json.Int r.repaired_vertices);
          ("moved_replicas", Json.Int r.moved_replicas);
          ("at_s", Json.Float r.at_s);
        ]
  | Executor_join e ->
      Json.Obj
        [
          ("type", Json.String "executor_join");
          ("step", Json.Int e.step);
          ("count", Json.Int e.count);
          ("executors", Json.Int e.executors);
        ]
  | Executor_leave e ->
      Json.Obj
        [
          ("type", Json.String "executor_leave");
          ("step", Json.Int e.step);
          ("count", Json.Int e.count);
          ("executors", Json.Int e.executors);
        ]
  | Reshuffle r ->
      Json.Obj
        [
          ("type", Json.String "reshuffle");
          ("step", Json.Int r.step);
          ("executors_before", Json.Int r.executors_before);
          ("executors_after", Json.Int r.executors_after);
          ("moved_partitions", Json.Int r.moved_partitions);
          ("moved_bytes", Json.Float r.moved_bytes);
          ("rebroadcast_replicas", Json.Int r.rebroadcast_replicas);
          ("rebroadcast_bytes", Json.Float r.rebroadcast_bytes);
          ("reshuffle_s", Json.Float r.reshuffle_s);
        ]
  | Tenant_throttle t ->
      Json.Obj
        [
          ("type", Json.String "tenant_throttle");
          ("tenant", Json.String t.tenant);
          ("job_id", Json.Int t.job_id);
          ("at_s", Json.Float t.at_s);
          ("pending", Json.Int t.pending);
        ]

let to_line t = Json.to_string (to_json t)

let pp ppf = function
  | Run_start { label } -> Format.fprintf ppf "run %s" label
  | Superstep (s, p) ->
      if s.step = -1 then
        Format.fprintf ppf
          "build  : wire=%.0fB compute=%.3fs network=%.3fs skew=%.2f t=%.3fs" s.wire_bytes
          s.compute_s s.network_s (skew p) s.time_s
      else
        Format.fprintf ppf
          "step %2d: act=%d edges=%d msgs=%d shfl=%d(+%d rem) bcast=%d(+%d rem) wire=%.0fB \
           skew=%.2f t=%.3fs (c=%.3f n=%.3f o=%.3f)"
          s.step s.updated_vertices s.active_edges s.messages
          (s.shuffle_groups - s.remote_shuffles)
          s.remote_shuffles s.broadcast_replicas s.remote_broadcasts s.wire_bytes (skew p)
          s.time_s s.compute_s s.network_s s.overhead_s
  | Run_end r ->
      Format.fprintf ppf
        "end %s: %s, %d supersteps, %.2fs total, %d msgs (%d remote), %.0f wire bytes" r.label
        r.outcome r.supersteps r.total_s r.total_messages r.total_remote r.total_wire_bytes
  | Fault_injected f ->
      Format.fprintf ppf "fault step %2d: %s%s — %s" f.step f.kind
        (if f.executor >= 0 then Printf.sprintf " on executor %d" f.executor else "")
        f.detail
  | Checkpoint c ->
      Format.fprintf ppf "ckpt  step %2d: %.0fB written in %.3fs" c.step c.bytes c.write_s
  | Recovery r ->
      Format.fprintf ppf "recov step %2d: %s of executor %d (%d replayed, %d edges, %d views) %.3fs"
        r.step r.kind r.executor r.replayed_steps r.lost_edges r.lost_replicas r.recovery_s
  | Speculative_launch s ->
      Format.fprintf ppf
        "spec  step %2d: executor %d cloned onto %d (%d tasks, %.0fB reshuffled, +%.3fs compute)"
        s.step s.executor s.host s.cloned_partitions s.wire_bytes s.compute_s
  | Speculative_win s ->
      Format.fprintf ppf "spec  step %2d: clone on %d beat executor %d, saved %.3fs" s.step
        s.host s.executor s.saved_s
  | Job_submit j ->
      Format.fprintf ppf "job %3d submit : %s on %s/%d at %.2fs" j.job_id j.algorithm j.dataset
        j.num_partitions j.arrival_s
  | Job_start j ->
      Format.fprintf ppf "job %3d start  : %s%s at %.2fs (queued %.2fs)" j.job_id j.strategy
        (if j.cache_hit then " [cached]" else "")
        j.start_s j.queue_s
  | Job_end j ->
      Format.fprintf ppf "job %3d end    : %s, partition %.2fs + exec %.2fs, done at %.2fs"
        j.job_id j.outcome j.partition_s j.exec_s j.finish_s
  | Job_retry j ->
      Format.fprintf ppf "job %3d retry  : attempt %d failed, requeued at %.2fs (+%.2fs backoff)"
        j.job_id j.attempt j.resubmit_s j.delay_s
  | Job_shed j ->
      Format.fprintf ppf "job %3d shed   : queue depth %d, policy %s, at %.2fs" j.job_id
        j.queue_depth j.policy j.at_s
  | Deadline_exceeded d ->
      Format.fprintf ppf "job %3d deadline: missed %.2fs SLO by %.2fs (%s)" d.job_id d.deadline_s
        d.overshoot_s
        (if d.started then "cancelled mid-run" else "culled from queue")
  | Breaker_open b ->
      Format.fprintf ppf "breaker open  : %s/%s after %d consecutive failures at %.2fs" b.dataset
        b.strategy b.failures b.at_s
  | Breaker_close b ->
      Format.fprintf ppf "breaker close : %s/%s probe succeeded at %.2fs" b.dataset b.strategy
        b.at_s
  | Cache_op c ->
      Format.fprintf ppf "cache %-6s: %s/%s/%d %.0fB (now %d entries, %.0fB) at %.2fs" c.op
        c.graph c.strategy c.num_partitions c.bytes c.entries c.occupancy_bytes c.at_s
  | Mutation_batch m ->
      Format.fprintf ppf "mutate batch %d: %s +%d/-%d edges (%d -> %d) at %.2fs" m.batch m.graph
        m.inserts m.deletes m.edges_before m.edges_after m.at_s
  | Repartition r ->
      Format.fprintf ppf
        "repart batch %d: %s chose %s (refresh %.4fs vs rebuild %.4fs; %d placed, %d repaired, \
         %d moved) at %.2fs"
        r.batch r.graph r.choice r.refresh_s r.rebuild_s r.placed_edges r.repaired_vertices
        r.moved_replicas r.at_s
  | Executor_join e ->
      Format.fprintf ppf "scale step %2d: +%d executor(s), now %d" e.step e.count e.executors
  | Executor_leave e ->
      Format.fprintf ppf "scale step %2d: -%d executor(s), now %d" e.step e.count e.executors
  | Reshuffle r ->
      Format.fprintf ppf
        "reshfl step %2d: %d -> %d executors; %d partition(s) %.0fB moved, %d replica(s) %.0fB \
         rebroadcast in %.3fs"
        r.step r.executors_before r.executors_after r.moved_partitions r.moved_bytes
        r.rebroadcast_replicas r.rebroadcast_bytes r.reshuffle_s
  | Tenant_throttle t ->
      Format.fprintf ppf "throttle %-8s: job %d held at quota (%d pending) at %.2fs" t.tenant
        t.job_id t.pending t.at_s
