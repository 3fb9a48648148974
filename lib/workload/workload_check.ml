module Violation = Cutfit_check.Violation
module Determinism = Cutfit_check.Determinism
module Event = Cutfit_obs.Event
module Sink = Cutfit_obs.Sink
module Telemetry = Cutfit_obs.Telemetry

let suite = "workload"

(* The outcome vocabulary partitions cleanly: a failed record carries
   exactly one of the failing outcomes, a successful record one of the
   run outcomes that produced a result. *)
let failing_outcomes = [ "aborted"; "error"; "invalid"; "shed"; "deadline"; "preempted" ]
let ok_outcomes = [ "completed"; "max-supersteps"; "out-of-memory" ]

let close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-6 *. scale

let cache_accounting (s : Cache.stats) =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  let non_negative name n = if n < 0 then add "cache-negative" "%s is negative (%d)" name n in
  non_negative "lookups" s.Cache.lookups;
  non_negative "hits" s.Cache.hits;
  non_negative "misses" s.Cache.misses;
  non_negative "insertions" s.Cache.insertions;
  non_negative "evictions" s.Cache.evictions;
  non_negative "invalidations" s.Cache.invalidations;
  non_negative "rejections" s.Cache.rejections;
  non_negative "entries" s.Cache.entries;
  if s.Cache.lookups <> s.Cache.hits + s.Cache.misses then
    add "cache-lookup-split" "lookups (%d) <> hits (%d) + misses (%d)" s.Cache.lookups s.Cache.hits
      s.Cache.misses;
  if s.Cache.entries <> s.Cache.insertions - s.Cache.evictions - s.Cache.invalidations then
    add "cache-entry-conservation"
      "entries (%d) <> insertions (%d) - evictions (%d) - invalidations (%d)" s.Cache.entries
      s.Cache.insertions s.Cache.evictions s.Cache.invalidations;
  if
    not
      (close s.Cache.bytes_in_cache
         (s.Cache.bytes_inserted -. s.Cache.bytes_evicted -. s.Cache.bytes_invalidated))
  then
    add "cache-byte-conservation"
      "bytes in cache (%.0f) <> bytes inserted (%.0f) - evicted (%.0f) - invalidated (%.0f)"
      s.Cache.bytes_in_cache s.Cache.bytes_inserted s.Cache.bytes_evicted
      s.Cache.bytes_invalidated;
  if s.Cache.bytes_in_cache < 0.0 then
    add "cache-negative" "bytes_in_cache is negative (%.0f)" s.Cache.bytes_in_cache;
  if s.Cache.bytes_in_cache > s.Cache.budget_bytes && s.Cache.budget_bytes > 0.0 then
    add "cache-over-budget" "bytes in cache (%.0f) exceed the budget (%.0f)"
      s.Cache.bytes_in_cache s.Cache.budget_bytes;
  List.rev !v

let record_checks (records : Engine.job_record list) =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  let last_id = ref (-1) in
  List.iter
    (fun (r : Engine.job_record) ->
      let id = r.Engine.job.Job.id in
      let start = r.Engine.start in
      let start_s = start.Event.start_s and failed = Option.is_some r.Engine.failure in
      if id <= !last_id then add "record-order" "job %d out of order after job %d" id !last_id;
      last_id := id;
      if start_s < r.Engine.job.Job.arrival_s then
        add "job-time-travel" "job %d started (%.6f) before it arrived (%.6f)" id start_s
          r.Engine.job.Job.arrival_s;
      if start.Event.queue_s <> start_s -. r.Engine.job.Job.arrival_s then
        add "job-queue-decomposition" "job %d queue_s (%.6f) <> start - arrival (%.6f)" id
          start.Event.queue_s
          (start_s -. r.Engine.job.Job.arrival_s);
      if r.Engine.finish_s <> start_s +. r.Engine.partition_s +. r.Engine.exec_s then
        add "job-cost-decomposition"
          "job %d finish_s (%.6f) <> start + partition + exec (%.6f)" id r.Engine.finish_s
          (start_s +. r.Engine.partition_s +. r.Engine.exec_s);
      if start.Event.cache_hit && r.Engine.partition_s <> 0.0 then
        add "job-hit-paid-build" "job %d hit the cache yet paid %.6f s of partitioning" id
          r.Engine.partition_s;
      if r.Engine.partition_s < 0.0 || r.Engine.exec_s < 0.0 then
        add "job-negative-cost" "job %d has a negative cost component (partition %.6f, exec %.6f)"
          id r.Engine.partition_s r.Engine.exec_s;
      if r.Engine.attempts < 0 || r.Engine.recoveries < 0 || r.Engine.recovery_s < 0.0 then
        add "job-negative-fault-counters"
          "job %d has negative fault counters (attempts %d, recoveries %d, recovery_s %.6f)" id
          r.Engine.attempts r.Engine.recoveries r.Engine.recovery_s;
      if r.Engine.preemptions < 0 then
        add "job-negative-fault-counters" "job %d has a negative preemption count (%d)" id
          r.Engine.preemptions;
      if r.Engine.preemptions > r.Engine.attempts then
        add "job-preempt-bound" "job %d counts %d preemptions over %d attempts" id
          r.Engine.preemptions r.Engine.attempts;
      if r.Engine.speculations < 0 then
        add "job-negative-fault-counters" "job %d has a negative speculation count (%d)" id
          r.Engine.speculations;
      if r.Engine.attempts = 0 then begin
        (* A zero-attempt job never ran: no costs, no cache traffic,
           and it must be marked failed (invalid at admission, shed by
           admission control, or culled from the queue at its
           deadline). *)
        if
          (not failed)
          || start.Event.cache_hit
          || r.Engine.partition_s <> 0.0
          || r.Engine.exec_s <> 0.0
          || r.Engine.recoveries <> 0
          || r.Engine.speculations <> 0
        then add "job-invalid-shape" "zero-attempt job %d carries run artifacts" id
      end;
      if failed && not (List.mem r.Engine.outcome failing_outcomes) then
        add "job-failed-outcome" "job %d is marked failed yet its outcome is %S" id
          r.Engine.outcome;
      if (not failed) && not (List.mem r.Engine.outcome ok_outcomes) then
        add "job-ok-outcome" "job %d is not failed yet its outcome is %S" id r.Engine.outcome;
      if String.equal r.Engine.outcome "shed" then begin
        (* A shed job was refused at its admission instant: it carries
           its arrival bookkeeping but no run costs at all. *)
        if r.Engine.finish_s <> start_s then
          add "job-shed-shape" "shed job %d accrued run time (start %.6f, finish %.6f)" id
            start_s r.Engine.finish_s;
        if start.Event.cache_hit then add "job-shed-shape" "shed job %d claims a cache hit" id
      end;
      (match (r.Engine.outcome, r.Engine.deadline_s) with
      | "deadline", None ->
          add "job-deadline-shape" "job %d was deadline-cancelled without a recorded deadline" id
      | "deadline", Some d ->
          (* Whether culled from the queue or truncated mid-run, the
             cancel pins the record's finish at the deadline instant
             (unless the job was already past it when first seen). *)
          if r.Engine.finish_s > d && not (close r.Engine.finish_s d) then
            add "job-deadline-shape" "job %d finished (%.6f) past its deadline (%.6f)" id
              r.Engine.finish_s d
      | _, Some d ->
          if (not failed) && r.Engine.finish_s > d && not (close r.Engine.finish_s d) then
            add "job-deadline-respected"
              "job %d completed (%.6f) past its SLO deadline (%.6f) without being cancelled" id
              r.Engine.finish_s d
      | _, None -> ()))
    records;
  List.rev !v

(* Breaker trips are a per-(tenant, dataset, strategy) state machine:
   the first trip opens, a close only ever follows an open, and an open
   carries the failure streak that tripped it. Running the machine on
   the tenant-scoped key is itself the breaker isolation law: a close in
   one tenant's namespace never pairs with an open in another's. The
   list is in the engine's decision order — with concurrent slots an
   attempt processed later can finish earlier, so the stamped instants
   are not globally sorted and carry no ordering law. *)
let breaker_checks (r : Engine.report) =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  (match (r.Engine.breaker_k, r.Engine.breaker_trips) with
  | None, [] -> ()
  | None, trips ->
      add "breaker-unarmed" "%d breaker trips recorded with no breaker armed" (List.length trips)
  | Some k, trips ->
      let states : (string, bool) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (t : Engine.breaker_trip) ->
          let key strategy =
            Engine.breaker_scope ~tenant:t.Engine.tenant ~dataset:t.Engine.dataset ^ "/" ^ strategy
          in
          match t.Engine.transition with
          | Engine.Opened b ->
              let key = key b.Event.strategy in
              if b.Event.failures < k then
                add "breaker-premature" "breaker %s opened after only %d failures (threshold %d)"
                  key b.Event.failures k;
              Hashtbl.replace states key true
          | Engine.Closed b ->
              let key = key b.Event.strategy in
              if not (Option.value ~default:false (Hashtbl.find_opt states key)) then
                add "breaker-close-without-open" "breaker %s closed while already closed" key;
              Hashtbl.replace states key false)
        trips);
  List.rev !v

(* Mutation batches are priced decisions over the cache's resident
   entries: both prices are modeled times (nonnegative), a refresh can
   only restore entries the batch itself dropped, and every drop is
   counted by the cache as an invalidation. *)
let mutation_checks (r : Engine.report) =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  if r.Engine.mutation_spec = None && r.Engine.mutations <> [] then
    add "mutation-unarmed" "%d mutation batches recorded with no mutation spec"
      (List.length r.Engine.mutations);
  List.iter
    (fun (m : Engine.mutation_record) ->
      let where = Printf.sprintf "batch %d on %s" m.Engine.mut_batch m.Engine.mut_dataset in
      if m.Engine.mut_refresh_s < 0.0 || m.Engine.mut_rebuild_s < 0.0 then
        add "mutation-price" "%s priced negative (refresh %.6f, rebuild %.6f)" where
          m.Engine.mut_refresh_s m.Engine.mut_rebuild_s;
      if not (List.mem m.Engine.mut_choice [ "refresh"; "rebuild" ]) then
        add "mutation-choice" "%s chose %S" where m.Engine.mut_choice;
      if m.Engine.mut_refreshed_entries > m.Engine.mut_dropped_entries then
        add "mutation-refresh-bound" "%s refreshed %d entries but dropped only %d" where
          m.Engine.mut_refreshed_entries m.Engine.mut_dropped_entries;
      if String.equal m.Engine.mut_choice "rebuild" && m.Engine.mut_refreshed_entries <> 0 then
        add "mutation-rebuild-cold" "%s rebuilt yet refreshed %d entries" where
          m.Engine.mut_refreshed_entries)
    r.Engine.mutations;
  let dropped =
    List.fold_left (fun acc (m : Engine.mutation_record) -> acc + m.Engine.mut_dropped_entries) 0
      r.Engine.mutations
  in
  if r.Engine.cache.Cache.invalidations < dropped then
    add "mutation-invalidation-count" "cache counts %d invalidations but batches dropped %d entries"
      r.Engine.cache.Cache.invalidations dropped;
  List.rev !v

(* Elasticity and tenancy laws. Preemption is involuntary, so it never
   consumes the retry budget; no scale activity without a scale spec;
   and the engine's two independently recounted invariants — no hit
   served from a stale placement, no fair-share breach — must both sit
   at zero. *)
let elastic_checks (r : Engine.report) =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  let preemptions = Engine.preemptions r in
  if r.Engine.scale_spec = None && (r.Engine.joins <> 0 || r.Engine.leaves <> 0 || preemptions <> 0)
  then
    add "elastic-unarmed" "%d join(s), %d leave(s), %d preemption(s) with no scale spec"
      r.Engine.joins r.Engine.leaves preemptions;
  (* The zero-retry-consumed rule: only voluntary failures draw on the
     budget, so a record may exceed [max_retries + 1] attempts by
     exactly its preemption count — never further. *)
  List.iter
    (fun (x : Engine.job_record) ->
      if x.Engine.attempts - x.Engine.preemptions > r.Engine.max_retries + 1 then
        add "job-retry-budget"
          "job %d launched %d attempts with %d preemptions against a budget of %d"
          x.Engine.job.Job.id x.Engine.attempts x.Engine.preemptions
          (r.Engine.max_retries + 1))
    r.Engine.records;
  if r.Engine.stale_placement_hits <> 0 then
    add "stale-placement" "%d cache hit(s) served from entries placed on departed executors"
      r.Engine.stale_placement_hits;
  if r.Engine.fairness_violations <> 0 then
    add "fairness-share" "%d launch(es) served a tenant ahead of a smaller weighted deficit"
      r.Engine.fairness_violations;
  List.rev !v

let aggregate_checks (r : Engine.report) =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  let fold f init = List.fold_left f init r.Engine.records in
  let attempts = fold (fun acc x -> acc + x.Engine.attempts) 0 in
  if r.Engine.cache.Cache.lookups <> attempts then
    add "aggregate-lookups" "cache lookups (%d) <> attempts launched (%d): one lookup per attempt"
      r.Engine.cache.Cache.lookups attempts;
  (* Only the final attempt's hit flag survives in the record, so the
     stats may count more hits than the records show — never fewer. *)
  let hits = fold (fun acc x -> if x.Engine.start.Event.cache_hit then acc + 1 else acc) 0 in
  if r.Engine.cache.Cache.hits < hits then
    add "aggregate-hits" "cache hits (%d) < hit records (%d)" r.Engine.cache.Cache.hits hits;
  let retries = fold (fun acc x -> acc + max 0 (x.Engine.attempts - 1)) 0 in
  let outcome name = List.length (List.filter (fun x -> String.equal x.Engine.outcome name) r.Engine.records) in
  (* A requeued job later culled at its deadline keeps the attempts it
     actually launched, so the recount is a floor once deadlines can
     interrupt the retry chain; without them it is exact. *)
  if outcome "deadline" = 0 then begin
    if r.Engine.retries <> retries then
      add "aggregate-retries" "retries (%d) <> sum of extra attempts over records (%d)"
        r.Engine.retries retries
  end
  else if r.Engine.retries < retries then
    add "aggregate-retries" "retries (%d) < sum of extra attempts over records (%d)"
      r.Engine.retries retries;
  (* Every submitted job lands in exactly one bucket: a successful run
     outcome, or one of the failing outcomes (abort, structural error,
     invalid at admission, shed by admission control, SLO cancel). *)
  let bucketed =
    List.fold_left (fun acc name -> acc + outcome name) 0 (failing_outcomes @ ok_outcomes)
  in
  let n = List.length r.Engine.records in
  if bucketed <> n then
    add "aggregate-outcome-conservation" "%d records bucket into %d known outcomes" n bucketed;
  List.rev !v

(* The job an event narrates, when it narrates one. *)
let job_of = function
  | Event.Job_submit { Event.job_id; _ } -> Some ("Job_submit", job_id)
  | Event.Job_start { Event.job_id; _ } -> Some ("Job_start", job_id)
  | Event.Job_end { Event.job_id; _ } -> Some ("Job_end", job_id)
  | Event.Job_retry { Event.job_id; _ } -> Some ("Job_retry", job_id)
  | Event.Job_shed { Event.job_id; _ } -> Some ("Job_shed", job_id)
  | Event.Tenant_throttle { Event.job_id; _ } -> Some ("Tenant_throttle", job_id)
  | Event.Deadline_exceeded { Event.job_id; _ } -> Some ("Deadline_exceeded", job_id)
  | Event.Run_start _ | Event.Superstep _ | Event.Run_end _ | Event.Fault_injected _
  | Event.Checkpoint _ | Event.Recovery _ | Event.Speculative_launch _ | Event.Speculative_win _
  | Event.Breaker_open _ | Event.Breaker_close _ | Event.Cache_op _ | Event.Mutation_batch _
  | Event.Repartition _ | Event.Executor_join _ | Event.Executor_leave _ | Event.Reshuffle _ ->
      None

(* The event stream against the report, in linear time. Every job event
   must name a known job (records are looked up by id); an orphan is
   reported once, as [event-orphan], and left out of the counts. The
   rest agree with their records, and the per-kind counts reconcile
   with the attempts, the report's folds and the cache's own counters.
   A [Job_start] payload is its record's [start] and a breaker event
   payload its trip's record, so neither is compared field by field. *)
let event_checks (r : Engine.report) events =
  let v = ref [] in
  let add rule fmt = Format.kasprintf (fun detail -> v := Violation.v ~suite ~rule "%s" detail :: !v) fmt in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (x : Engine.job_record) -> Hashtbl.replace by_id x.Engine.job.Job.id x)
    r.Engine.records;
  let events =
    List.filter
      (fun ev ->
        match job_of ev with
        | Some (kind, id) when not (Hashtbl.mem by_id id) ->
            add "event-orphan" "%s for unknown job %d" kind id;
            false
        | Some _ | None -> true)
      events
  in
  let record id : Engine.job_record = Hashtbl.find by_id id in
  List.iter
    (function
      | Event.Job_end je ->
          (* Earlier (failed) attempts stream their own Job_end; only the
             final attempt — the one sharing the record's finish — must
             match it. *)
          let x = record je.Event.job_id in
          if
            je.Event.finish_s = x.Engine.finish_s
            && ((not (String.equal je.Event.outcome x.Engine.outcome))
               || je.Event.partition_s <> x.Engine.partition_s
               || je.Event.exec_s <> x.Engine.exec_s)
          then add "event-end-mismatch" "Job_end %d disagrees with its record" je.Event.job_id
      | Event.Job_submit js ->
          if js.Event.arrival_s <> (record js.Event.job_id).Engine.job.Job.arrival_s then
            add "event-submit-mismatch" "Job_submit %d disagrees with its record" js.Event.job_id
      | Event.Job_shed s ->
          let x = record s.Event.job_id in
          if not (String.equal x.Engine.outcome "shed") then
            add "event-shed-mismatch" "Job_shed %d but its record's outcome is %S" s.Event.job_id
              x.Engine.outcome
          else if
            (not
               (String.equal s.Event.policy (Engine.shed_policy_name r.Engine.shed_policy)
               || String.equal s.Event.policy "quota"))
            || s.Event.at_s <> x.Engine.start.Event.start_s
          then add "event-shed-mismatch" "Job_shed %d disagrees with its record" s.Event.job_id
      | Event.Tenant_throttle tt ->
          let x = record tt.Event.job_id in
          if not (String.equal x.Engine.outcome "shed") then
            add "event-throttle" "Tenant_throttle %d but its record's outcome is %S"
              tt.Event.job_id x.Engine.outcome
          else if not (String.equal tt.Event.tenant x.Engine.job.Job.tenant) then
            add "event-throttle" "Tenant_throttle %d names tenant %s, record says %s"
              tt.Event.job_id tt.Event.tenant x.Engine.job.Job.tenant
      | Event.Deadline_exceeded d ->
          let x = record d.Event.job_id in
          if not (String.equal x.Engine.outcome "deadline") then
            add "event-deadline-mismatch" "Deadline_exceeded %d but its record's outcome is %S"
              d.Event.job_id x.Engine.outcome
          else if
            (match x.Engine.deadline_s with Some rd -> rd <> d.Event.deadline_s | None -> true)
            || d.Event.overshoot_s < 0.0
          then
            add "event-deadline-mismatch" "Deadline_exceeded %d disagrees with its record"
              d.Event.job_id
      | _ -> ())
    events;
  let count f = List.length (List.filter f events) in
  let n = List.length r.Engine.records in
  let attempts =
    List.fold_left (fun acc (x : Engine.job_record) -> acc + x.Engine.attempts) 0 r.Engine.records
  in
  let submits = count (function Event.Job_submit _ -> true | _ -> false) in
  if submits <> n then add "event-submits" "%d Job_submit events for %d records" submits n;
  let starts = count (function Event.Job_start _ -> true | _ -> false) in
  if starts <> attempts then
    add "event-starts" "%d Job_start events for %d attempts" starts attempts;
  let ends = count (function Event.Job_end _ -> true | _ -> false) in
  if ends <> attempts then add "event-ends" "%d Job_end events for %d attempts" ends attempts;
  let retry_events = count (function Event.Job_retry _ -> true | _ -> false) in
  if retry_events <> r.Engine.retries then
    add "event-retries" "%d Job_retry events for %d counted retries" retry_events r.Engine.retries;
  let sheds = count (function Event.Job_shed _ -> true | _ -> false) in
  if sheds <> Engine.shed_jobs r then
    add "event-sheds" "%d Job_shed events for %d shed records" sheds (Engine.shed_jobs r);
  let cancels = count (function Event.Deadline_exceeded _ -> true | _ -> false) in
  if cancels <> Engine.deadline_jobs r then
    add "event-deadlines" "%d Deadline_exceeded events for %d deadline-cancelled records" cancels
      (Engine.deadline_jobs r);
  (* Superseded (retried) attempts launched speculations of their own,
     so the stream may carry more launches than the surviving records —
     never fewer, and none at all without a speculation config. *)
  let launches = count (function Event.Speculative_launch _ -> true | _ -> false) in
  let wins = count (function Event.Speculative_win _ -> true | _ -> false) in
  let record_specs = Engine.total_speculations r in
  (match r.Engine.speculation with
  | None ->
      if launches <> 0 || wins <> 0 then
        add "event-speculation" "%d speculative events with speculation disabled" (launches + wins)
  | Some _ ->
      if launches < record_specs then
        add "event-speculation" "%d Speculative_launch events for %d recorded clones" launches
          record_specs;
      if r.Engine.retries = 0 && Engine.deadline_jobs r = 0 && launches <> record_specs then
        add "event-speculation"
          "%d Speculative_launch events for %d recorded clones with no superseded attempts"
          launches record_specs;
      if wins > launches then
        add "event-speculation" "%d Speculative_win events for %d launches" wins launches);
  (* Scale events reconcile with the spec's membership changes and the
     records' preemptions, and every quota throttle pairs 1:1 with a
     ["quota"]-policy shed. *)
  let join_events = count (function Event.Executor_join _ -> true | _ -> false) in
  if join_events <> r.Engine.joins then
    add "event-scale" "%d Executor_join events for %d applied joins" join_events r.Engine.joins;
  let leave_events = count (function Event.Executor_leave _ -> true | _ -> false) in
  if leave_events <> r.Engine.leaves then
    add "event-scale" "%d Executor_leave events for %d applied leaves" leave_events
      r.Engine.leaves;
  let preempt_events =
    count (function
      | Event.Fault_injected f -> String.equal f.Event.kind "preempt"
      | _ -> false)
  in
  if preempt_events <> Engine.preemptions r then
    add "event-scale" "%d preempt Fault_injected events for %d recorded preemptions"
      preempt_events (Engine.preemptions r);
  let throttles =
    List.filter_map (function Event.Tenant_throttle t -> Some t | _ -> None) events
  in
  let quota_sheds =
    List.filter_map
      (function
        | Event.Job_shed s when String.equal s.Event.policy "quota" -> Some s | _ -> None)
      events
  in
  if List.length throttles <> List.length quota_sheds then
    add "event-throttle" "%d Tenant_throttle events for %d quota sheds" (List.length throttles)
      (List.length quota_sheds)
  else
    List.iter2
      (fun (t : Event.tenant_throttle) (s : Event.job_shed) ->
        if t.Event.job_id <> s.Event.job_id || t.Event.at_s <> s.Event.at_s then
          add "event-throttle" "Tenant_throttle %d disagrees with its quota shed %d"
            t.Event.job_id s.Event.job_id)
      throttles quota_sheds;
  let ops name = count (function Event.Cache_op c -> String.equal c.Event.op name | _ -> false) in
  let stats = r.Engine.cache in
  let pair name observed expected =
    if observed <> expected then
      add "event-cache-ops" "%d %S cache events for %d counted in the stats" observed name
        expected
  in
  pair "hit" (ops "hit") stats.Cache.hits;
  pair "miss" (ops "miss") stats.Cache.misses;
  pair "insert" (ops "insert") stats.Cache.insertions;
  pair "evict" (ops "evict") stats.Cache.evictions;
  pair "invalidate" (ops "invalidate") stats.Cache.invalidations;
  pair "reject" (ops "reject") stats.Cache.rejections;
  List.rev !v

let report ?events (r : Engine.report) =
  cache_accounting r.Engine.cache
  @ record_checks r.Engine.records
  @ aggregate_checks r
  @ breaker_checks r
  @ mutation_checks r
  @ elastic_checks r
  @ match events with None -> [] | Some evs -> event_checks r evs

let digest r = Determinism.lines_digest (Engine.report_lines r)

let run_twice ~label f = Determinism.run_twice ~label (fun () -> digest (f ()))

let check_run ~label ?(sinks = []) (run : ?telemetry:Telemetry.t -> unit -> Engine.report) =
  let all, read_all = Sink.collect () in
  let telemetry = Telemetry.create ~sinks:(sinks @ [ all ]) () in
  let r = run ~telemetry () in
  Telemetry.close telemetry;
  let direct = report ~events:(read_all ()) r in
  let first = digest r in
  (r, first, direct @ Determinism.replay ~label ~first (fun () -> digest (run ())))
