module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event

let suite = "trace"

type payload = { msg_wire_bytes : float; attr_wire_bytes : float; scale : float }

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Byte totals are accumulated per executor and scaled, so the payload
   cross-check recomputes them in a different association order; exact
   equality is not available there, only everywhere a value is
   propagated unchanged. *)
let close a b =
  let tol = 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol

let validate ?payload (t : Trace.t) =
  let acc = ref [] in
  let bad rule fmt = Format.kasprintf (fun d -> acc := Violation.v ~suite ~rule "%s" d :: !acc) fmt in
  (* Stage ordering: an optional build stage (-1) followed by strictly
     increasing compute supersteps. *)
  (match t.Trace.supersteps with
  | [] -> ()
  | first :: _ ->
      if first.Event.step > 0 then bad "step-order" "first stage is step %d" first.Event.step;
      ignore
        (List.fold_left
           (fun prev (s : Trace.superstep) ->
             (match prev with
             | Some p when s.Event.step <> p + 1 ->
                 bad "step-order" "step %d follows step %d" s.Event.step p
             | _ -> ());
             Some s.Event.step)
           None t.Trace.supersteps));
  List.iter
    (fun (s : Trace.superstep) ->
      let step = s.Event.step in
      List.iter
        (fun (name, v) ->
          if v < 0 then bad "negative-count" "step %d: %s = %d, expected >= 0" step name v)
        [
          ("active_edges", s.Event.active_edges);
          ("messages", s.Event.messages);
          ("shuffle_groups", s.Event.shuffle_groups);
          ("remote_shuffles", s.Event.remote_shuffles);
          ("updated_vertices", s.Event.updated_vertices);
          ("broadcast_replicas", s.Event.broadcast_replicas);
          ("remote_broadcasts", s.Event.remote_broadcasts);
        ];
      (* Conservation: every emitted message is merged into exactly one
         (vertex, partition) aggregate, so aggregates cannot outnumber
         messages; remote subsets cannot outgrow their totals. *)
      if s.Event.shuffle_groups > s.Event.messages then
        bad "message-conservation" "step %d: %d shuffle groups from only %d messages" step
          s.Event.shuffle_groups s.Event.messages;
      if s.Event.remote_shuffles > s.Event.shuffle_groups then
        bad "shuffle-conservation" "step %d: remote_shuffles %d > shuffle_groups %d" step
          s.Event.remote_shuffles s.Event.shuffle_groups;
      if s.Event.remote_broadcasts > s.Event.broadcast_replicas then
        bad "broadcast-conservation" "step %d: remote_broadcasts %d > broadcast_replicas %d" step
          s.Event.remote_broadcasts s.Event.broadcast_replicas;
      if s.Event.wire_bytes < 0.0 then
        bad "wire-bytes" "step %d: wire_bytes = %g < 0" step s.Event.wire_bytes;
      (* Compute supersteps move bytes only for remote traffic (the
         build stage shuffles raw edges and is exempt). *)
      if
        step >= 0
        && s.Event.remote_shuffles + s.Event.remote_broadcasts = 0
        && s.Event.wire_bytes <> 0.0
      then
        bad "wire-without-remote" "step %d: %g wire bytes with no remote messages" step
          s.Event.wire_bytes;
      (match payload with
      | Some { msg_wire_bytes; attr_wire_bytes; scale } when step >= 0 ->
          let expect =
            scale
            *. ((float_of_int s.Event.remote_shuffles *. msg_wire_bytes)
               +. (float_of_int s.Event.remote_broadcasts *. attr_wire_bytes))
          in
          if not (close s.Event.wire_bytes expect) then
            bad "wire-payload"
              "step %d: wire_bytes = %.17g but %d remote shuffles x %g + %d remote broadcasts x \
               %g at scale %g = %.17g"
              step s.Event.wire_bytes s.Event.remote_shuffles msg_wire_bytes
              s.Event.remote_broadcasts attr_wire_bytes scale expect
      | _ -> ());
      if not (feq s.Event.time_s (Float.max s.Event.compute_s s.Event.network_s +. s.Event.overhead_s))
      then
        bad "time-decomposition"
          "step %d: time_s = %.17g but max(compute %.17g, network %.17g) + overhead %.17g = %.17g"
          step s.Event.time_s s.Event.compute_s s.Event.network_s s.Event.overhead_s
          (Float.max s.Event.compute_s s.Event.network_s +. s.Event.overhead_s))
    t.Trace.supersteps;
  (* Total time is rebuilt with the same left fold the engines use, so
     the comparison is exact. *)
  let total =
    List.fold_left
      (fun a (s : Trace.superstep) -> a +. s.Event.time_s)
      (t.Trace.load_s +. t.Trace.checkpoint_s +. Trace.recovery_s t +. Trace.reshuffle_s t)
      t.Trace.supersteps
  in
  if not (feq total t.Trace.total_s) then
    bad "total-time"
      "total_s = %.17g but load + checkpoints + recovery + reshuffles + supersteps = %.17g"
      t.Trace.total_s total;
  if t.Trace.checkpoints = 0 && t.Trace.checkpoint_s <> 0.0 then
    bad "checkpoint-time" "%g checkpoint seconds recorded with zero checkpoints"
      t.Trace.checkpoint_s;
  (* Recovery accounting: no recovery exists without a fault having
     been injected, and each record carries only its kind's counters. *)
  if t.Trace.faults_injected < 0 then
    bad "fault-count" "faults_injected = %d < 0" t.Trace.faults_injected;
  if List.length t.Trace.recoveries > t.Trace.faults_injected then
    bad "recovery-without-fault" "%d recoveries recorded for %d injected faults"
      (List.length t.Trace.recoveries) t.Trace.faults_injected;
  List.iter
    (fun (r : Trace.recovery) ->
      (match r.Event.kind with
      | "rollback" | "lineage" | "shuffle-retry" | "preempt" -> ()
      | k -> bad "recovery-kind" "step %d: unknown recovery kind %S" r.Event.step k);
      if r.Event.recovery_s < 0.0 then
        bad "recovery-cost" "step %d: recovery_s = %g < 0" r.Event.step r.Event.recovery_s;
      if r.Event.wire_bytes < 0.0 then
        bad "recovery-cost" "step %d: wire_bytes = %g < 0" r.Event.step r.Event.wire_bytes;
      if r.Event.replayed_steps < 0 || r.Event.lost_edges < 0 || r.Event.lost_replicas < 0 then
        bad "recovery-cost" "step %d: negative recovery counters" r.Event.step;
      if
        (not (String.equal r.Event.kind "rollback"))
        && r.Event.replayed_steps <> 0
      then
        bad "recovery-shape" "step %d: %s recovery replayed %d steps" r.Event.step r.Event.kind
          r.Event.replayed_steps;
      (* Lineage rebuilds and spot preemptions both lose resident
         partitions; rollbacks and shuffle retries never do. *)
      if
        (not (String.equal r.Event.kind "lineage" || String.equal r.Event.kind "preempt"))
        && (r.Event.lost_edges <> 0 || r.Event.lost_replicas <> 0)
      then
        bad "recovery-shape" "step %d: %s recovery claims lost partitions" r.Event.step
          r.Event.kind)
    t.Trace.recoveries;
  (* Speculation accounting: each clone record is internally
     consistent — the clone ran elsewhere, the win flag matches the
     busy-time comparison, and the superstep the clone raced in pays at
     least the winner's busy time. *)
  List.iter
    (fun (s : Trace.speculation) ->
      let step = s.Event.step in
      if step < 1 then bad "speculation-step" "speculation at step %d: clones race only at compute supersteps" step;
      if s.Event.host = s.Event.executor then
        bad "speculation-shape" "step %d: clone hosted on the straggler itself (executor %d)" step
          s.Event.executor;
      if s.Event.executor < 0 || s.Event.host < 0 then
        bad "speculation-shape" "step %d: negative executor ids (%d -> %d)" step s.Event.executor
          s.Event.host;
      if s.Event.cloned_partitions <= 0 then
        bad "speculation-shape" "step %d: clone of %d partitions" step s.Event.cloned_partitions;
      if
        s.Event.original_busy_s <= 0.0 || s.Event.clone_busy_s < 0.0
        || s.Event.compute_s < 0.0
        || s.Event.wire_bytes < 0.0
      then bad "speculation-cost" "step %d: negative speculation cost component" step;
      if s.Event.won <> (s.Event.clone_busy_s < s.Event.original_busy_s) then
        bad "speculation-winner" "step %d: won = %b yet clone busy %.17g vs original %.17g" step
          s.Event.won s.Event.clone_busy_s s.Event.original_busy_s;
      let saved = if s.Event.won then s.Event.original_busy_s -. s.Event.clone_busy_s else 0.0 in
      if not (feq s.Event.saved_s saved) then
        bad "speculation-saved" "step %d: saved_s = %.17g, expected %.17g" step s.Event.saved_s
          saved;
      match
        List.find_opt (fun (ss : Trace.superstep) -> ss.Event.step = step) t.Trace.supersteps
      with
      | None -> bad "speculation-step" "speculation at step %d which the trace never ran" step
      | Some ss ->
          let winner = if s.Event.won then s.Event.clone_busy_s else s.Event.original_busy_s in
          if ss.Event.compute_s < winner then
            bad "speculation-compute" "step %d: compute_s %.17g < winning busy time %.17g" step
              ss.Event.compute_s winner)
    t.Trace.speculations;
  (* Reshuffle accounting: each membership-change record conserves the
     quantities a re-homing can touch — membership actually changed,
     nothing was created or destroyed, and zero moved partitions means
     zero moved (and re-broadcast) bytes. *)
  List.iter
    (fun (r : Trace.reshuffle) ->
      let step = r.Event.step in
      if r.Event.executors_before <= 0 || r.Event.executors_after <= 0 then
        bad "reshuffle-shape" "step %d: non-positive membership (%d -> %d)" step
          r.Event.executors_before r.Event.executors_after;
      if r.Event.executors_before = r.Event.executors_after then
        bad "reshuffle-shape" "step %d: reshuffle without a membership change (%d executors)" step
          r.Event.executors_before;
      if r.Event.moved_partitions < 0 || r.Event.rebroadcast_replicas < 0 then
        bad "reshuffle-cost" "step %d: negative reshuffle counters" step;
      if r.Event.moved_bytes < 0.0 || r.Event.rebroadcast_bytes < 0.0 || r.Event.reshuffle_s < 0.0
      then bad "reshuffle-cost" "step %d: negative reshuffle cost component" step;
      if
        r.Event.moved_partitions = 0
        && (r.Event.moved_bytes <> 0.0
           || r.Event.rebroadcast_replicas <> 0
           || r.Event.rebroadcast_bytes <> 0.0)
      then
        bad "reshuffle-conservation" "step %d: bytes re-shipped without any moved partition" step)
    t.Trace.reshuffles;
  List.rev !acc

let tsuite = "telemetry"

(* Events carry the trace's own records, and the pricer builds each
   executor profile and the [Run_end] totals from the values it stores
   on the trace, so no payload is compared with its source here. The
   laws checked tie two separately produced facts together: one event
   per trace record of each kind, and at most one [Run_end]. *)
let reconcile (t : Trace.t) events =
  let acc = ref [] in
  let bad rule fmt =
    Format.kasprintf (fun d -> acc := Violation.v ~suite:tsuite ~rule "%s" d :: !acc) fmt
  in
  let kinds f = List.length (List.filter f events) in
  let count rule what n records =
    if n <> List.length records then
      bad rule "%d %s events for %d trace records" n what (List.length records)
  in
  count "event-count" "superstep"
    (kinds (function Event.Superstep _ -> true | _ -> false))
    t.Trace.supersteps;
  (match kinds (function Event.Run_end _ -> true | _ -> false) with
  | 0 | 1 -> ()
  | n -> bad "run-end" "%d run_end events for one run" n);
  let ckpts = kinds (function Event.Checkpoint _ -> true | _ -> false) in
  if ckpts <> t.Trace.checkpoints then
    bad "checkpoint-events" "%d checkpoint events for %d trace checkpoints" ckpts
      t.Trace.checkpoints;
  let faults = kinds (function Event.Fault_injected _ -> true | _ -> false) in
  if faults <> t.Trace.faults_injected then
    bad "fault-events" "%d fault_injected events for %d injected faults" faults
      t.Trace.faults_injected;
  count "recovery-events" "recovery"
    (kinds (function Event.Recovery _ -> true | _ -> false))
    t.Trace.recoveries;
  count "speculation-events" "speculative_launch"
    (kinds (function Event.Speculative_launch _ -> true | _ -> false))
    t.Trace.speculations;
  count "speculation-events" "speculative_win"
    (kinds (function Event.Speculative_win _ -> true | _ -> false))
    (List.filter (fun (s : Trace.speculation) -> s.won) t.Trace.speculations);
  count "reshuffle-events" "reshuffle"
    (kinds (function Event.Reshuffle _ -> true | _ -> false))
    t.Trace.reshuffles;
  (* Every membership change (join or leave) produced one reshuffle. *)
  count "scale-events" "membership"
    (kinds (function Event.Executor_join _ | Event.Executor_leave _ -> true | _ -> false))
    t.Trace.reshuffles;
  List.rev !acc
