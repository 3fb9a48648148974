module Advisor = Cutfit.Advisor
module Pipeline = Cutfit.Pipeline
module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Elastic = Cutfit_bsp.Elastic
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace
module Faults = Cutfit_bsp.Faults
module Speculation = Cutfit_bsp.Speculation
module Summary = Cutfit_stats.Summary
module Datasets = Cutfit_gen.Datasets
module Sssp = Cutfit_algo.Sssp
module Splitmix64 = Cutfit_prng.Splitmix64
module Telemetry = Cutfit_obs.Telemetry
module Event = Cutfit_obs.Event
module Json = Cutfit_obs.Json
module Streaming = Cutfit_partition.Streaming
module Mutation = Cutfit_dynamic.Mutation
module Incremental = Cutfit_dynamic.Incremental
module Repartition = Cutfit_dynamic.Repartition

type policy = Fifo | Sjf

let policy_name = function Fifo -> "fifo" | Sjf -> "sjf"

let policy_of_string s =
  match String.lowercase_ascii s with "fifo" -> Some Fifo | "sjf" -> Some Sjf | _ -> None

type selection = Heuristic | Measured | Cache_aware of float

let selection_name = function
  | Heuristic -> "heuristic"
  | Measured -> "measured"
  | Cache_aware _ -> "cache-aware"

let selection_of_string ?(threshold = 0.25) s =
  match String.lowercase_ascii s with
  | "heuristic" -> Some Heuristic
  | "measured" | "measure" -> Some Measured
  | "cache-aware" | "cacheaware" | "cache" -> Some (Cache_aware threshold)
  | _ -> None

type shed_policy = Reject | Drop_oldest

let shed_policy_name = function Reject -> "reject" | Drop_oldest -> "drop-oldest"

let shed_policy_of_string s =
  match String.lowercase_ascii s with
  | "reject" -> Some Reject
  | "drop-oldest" | "dropoldest" | "oldest" -> Some Drop_oldest
  | _ -> None

type deadline = Absolute of float | Factor of float

let deadline_name = function
  | Absolute s -> Printf.sprintf "absolute:%g" s
  | Factor f -> Printf.sprintf "factor:%g" f

type breaker_trip = {
  trip_tenant : string;
  trip_dataset : string;
  trip_strategy : string;
  trip_at_s : float;
  opened : bool;
  trip_failures : int;
}

(* Per-tenant breaker namespaces: one tenant's failures trip only its
   own breakers. Single-tenant streams keep the bare dataset scope, so
   pre-tenancy event streams and digests are byte-identical. *)
let breaker_scope ~tenant ~dataset =
  if String.equal tenant Job.default_tenant then dataset else tenant ^ "/" ^ dataset

type job_record = {
  job : Job.t;
  strategy : string;
  cache_hit : bool;
  outcome : string;
  attempts : int;
  preemptions : int;
  recoveries : int;
  recovery_s : float;
  speculations : int;
  deadline_s : float option;
  failed : bool;
  start_s : float;
  queue_s : float;
  partition_s : float;
  exec_s : float;
  finish_s : float;
}

type job_failure = { job_id : int; failed_attempts : int; reason : string }

(* How a mutation batch resolves the refresh-vs-rebuild question:
   [Priced] asks the cost model, the forced modes pin the answer — the
   bench's control arms for the incremental-vs-rebuild comparison. *)
type mutation_mode = Priced | Force_refresh | Force_rebuild

let mutation_mode_name = function
  | Priced -> "priced"
  | Force_refresh -> "refresh"
  | Force_rebuild -> "rebuild"

let mutation_mode_of_string s =
  match String.lowercase_ascii s with
  | "priced" -> Some Priced
  | "refresh" -> Some Force_refresh
  | "rebuild" -> Some Force_rebuild
  | _ -> None

type mutation_record = {
  mut_batch : int;
  mut_dataset : string;
  mut_at_s : float;
  mut_inserts : int;
  mut_deletes : int;
  mut_edges_after : int;
  mut_refresh_s : float;
  mut_rebuild_s : float;
  mut_choice : string;
  mut_dropped_entries : int;
  mut_refreshed_entries : int;
}

type report = {
  policy : policy;
  selection : selection;
  eviction : Cache.eviction;
  budget_bytes : float;
  slots : int;
  seed : int64;
  max_retries : int;
  fault_spec : string option;
  checkpoint_every : int option;
  queue_bound : int option;
  shed_policy : shed_policy;
  deadline : deadline option;
  breaker_k : int option;
  breaker_cooldown_s : float;
  backpressure : int option;
  speculation : Speculation.config option;
  mutation_spec : string option;
  mutate_every : int;
  mutation_mode : mutation_mode;
  scale_spec : string option;
  tenant_weights : (string * float) list;
  tenant_quota : int option;
  tenant_deadlines : (string * deadline) list;
  fairness : bool;
  records : job_record list;
  failures : job_failure list;
  breaker_trips : breaker_trip list;
  mutations : mutation_record list;
  retries : int;
  joins : int;
  leaves : int;
  preemptions : int;
  stale_placement_hits : int;
  fairness_violations : int;
  cache : Cache.stats;
  makespan_s : float;
  total_queue_s : float;
  total_partition_s : float;
  total_exec_s : float;
}

let failed_jobs r = List.length r.failures

let count_outcome name r =
  List.length (List.filter (fun x -> String.equal x.outcome name) r.records)

let shed_jobs = count_outcome "shed"
let deadline_jobs = count_outcome "deadline"
let total_speculations r = List.fold_left (fun acc x -> acc + x.speculations) 0 r.records

(* Job latency = finish - arrival, over the jobs that actually produced
   a result: sheds, deadline cancels and other permanent failures are
   accounted separately (their latency would be an artifact of the
   give-up instant, not of service). *)
let latency_percentiles r =
  match
    List.filter_map
      (fun x -> if x.failed then None else Some (x.finish_s -. x.job.Job.arrival_s))
      r.records
  with
  | [] -> None
  | l -> Some (Summary.percentiles (Array.of_list l))

(* Requeue backoff after a cluster loss: capped exponential on the
   attempt number, in simulated seconds — long enough to model a
   cluster restart, bounded so a stubborn schedule cannot stall the
   queue forever. *)
let retry_backoff_base_s = 2.0
let retry_backoff_cap_s = 30.0

let retry_delay_s ~attempt =
  Float.min retry_backoff_cap_s (retry_backoff_base_s *. (2.0 ** float_of_int (attempt - 1)))

(* Modeled resident bytes of a frozen partitioning: the cost model's
   per-edge and per-vertex JVM object sizes over every partition's local
   tables, at paper scale — the same footprint the memory model charges
   executors during a run. *)
let pgraph_bytes ~scale pg =
  let cost = Cost_model.default in
  let edges = ref 0 and verts = ref 0 in
  for p = 0 to Pgraph.num_partitions pg - 1 do
    edges := !edges + Pgraph.num_edges_of_partition pg p;
    verts := !verts + Pgraph.local_vertices pg p
  done;
  scale
  *. ((float_of_int !edges *. float_of_int cost.Cost_model.edge_object_bytes)
     +. (float_of_int !verts *. float_of_int cost.Cost_model.vertex_object_bytes))

let run ?(cluster = Cluster.config_i) ?(slots = 2) ?(eviction = Cache.Lru)
    ?(budget_bytes = 8.0e9) ?iterations ?checkpoint_every ?faults ?speculation ?(max_retries = 2)
    ?queue_bound ?(shed_policy = Reject) ?deadline ?breaker_k ?(breaker_cooldown_s = 60.0)
    ?backpressure ?telemetry ?(policy = Fifo) ?(selection = Cache_aware 0.25) ?mutations
    ?(mutate_every = 8) ?(mutation_mode = Priced) ?(mutation_heuristic = Streaming.Greedy)
    ?scale_events ?(tenant_weights = []) ?tenant_quota ?(tenant_deadlines = [])
    ?(fairness = false) ~seed jobs =
  if slots < 1 then invalid_arg "Engine.run: slots must be >= 1";
  if mutate_every < 1 then invalid_arg "Engine.run: mutate_every must be >= 1";
  if max_retries < 0 then invalid_arg "Engine.run: max_retries must be >= 0";
  (match queue_bound with
  | Some b when b < 1 -> invalid_arg "Engine.run: queue_bound must be >= 1"
  | _ -> ());
  (match deadline with
  | Some (Absolute s) when s <= 0.0 -> invalid_arg "Engine.run: absolute deadline must be > 0"
  | Some (Factor f) when f <= 0.0 -> invalid_arg "Engine.run: deadline factor must be > 0"
  | _ -> ());
  (match breaker_k with
  | Some k when k < 1 -> invalid_arg "Engine.run: breaker_k must be >= 1"
  | _ -> ());
  if breaker_cooldown_s < 0.0 then invalid_arg "Engine.run: breaker_cooldown_s must be >= 0";
  (match backpressure with
  | Some w when w < 0 -> invalid_arg "Engine.run: backpressure watermark must be >= 0"
  | _ -> ());
  List.iter
    (fun (tn, w) ->
      if String.length tn = 0 then invalid_arg "Engine.run: empty tenant name in weights";
      if not (w > 0.0) then invalid_arg "Engine.run: tenant weights must be > 0")
    tenant_weights;
  (match tenant_quota with
  | Some q when q < 1 -> invalid_arg "Engine.run: tenant_quota must be >= 1"
  | _ -> ());
  List.iter
    (fun (_, d) ->
      match d with
      | Absolute s when s <= 0.0 -> invalid_arg "Engine.run: absolute tenant deadline must be > 0"
      | Factor f when f <= 0.0 -> invalid_arg "Engine.run: tenant deadline factor must be > 0"
      | _ -> ())
    tenant_deadlines;
  let cache = Cache.create ~eviction ~budget_bytes () in
  let emit e = match telemetry with None -> () | Some t -> Telemetry.emit t e in
  (* --- elastic membership timeline --- *)
  (* Scale events are a static function of simulated time: the spec's
     join/leave items fold into a membership chain from the initial
     [slots], clamped to [1, slots + total joins], and every preempt
     item realizes its victim against the membership at its instant —
     all decided up front, so the simulation stays bit-reproducible.
     A leave is a graceful drain: the departing slot finishes its
     running job and simply never gets another; a join opens a fresh
     slot at the join instant; a preemption kills the job running on
     the victim slot mid-flight (spot reclamation). *)
  let total_joins = match scale_events with None -> 0 | Some c -> Elastic.total_joins c in
  let max_slots = slots + total_joins in
  let timeline =
    match scale_events with
    | None -> []
    | Some (c : Elastic.config) ->
        let step_of = function
          | Elastic.Join { step; _ } | Elastic.Leave { step; _ } | Elastic.Preempt { step; _ } ->
              step
        in
        let items = List.stable_sort (fun a b -> compare (step_of a) (step_of b)) c.Elastic.items in
        List.rev
          (fst
             (List.fold_left
                (fun (acc, live) item ->
                  match item with
                  | Elastic.Join { step; count } ->
                      let after = min max_slots (live + count) in
                      if after = live then (acc, live)
                      else (`Scale (step, live, after) :: acc, after)
                  | Elastic.Leave { step; count } ->
                      let after = max 1 (live - count) in
                      if after = live then (acc, live)
                      else (`Scale (step, live, after) :: acc, after)
                  | Elastic.Preempt { step; retries } ->
                      let victim = Elastic.victim c ~step ~alive:live in
                      (`Preempt (step, victim, retries) :: acc, live))
                ([], slots) items))
  in
  let live_at t =
    List.fold_left
      (fun live ev ->
        match ev with
        | `Scale (step, _, after) when float_of_int step <= t -> after
        | `Scale _ | `Preempt _ -> live)
      slots timeline
  in
  (* Earliest instant >= [t0] at which slot [s] is a live executor —
     [None] only for a slot that never (re)joins past [t0]; slot 0 is
     always live (membership is clamped at 1). *)
  let slot_usable_from s t0 =
    if s < live_at t0 then Some t0
    else
      List.fold_left
        (fun acc ev ->
          match (acc, ev) with
          | Some _, _ -> acc
          | None, `Scale (step, _, after) when float_of_int step > t0 && s < after ->
              Some (float_of_int step)
          | None, (`Scale _ | `Preempt _) -> None)
        None timeline
  in
  let preempts_for s =
    List.filter_map
      (function
        | `Preempt (step, victim, r) when victim = s -> Some (float_of_int step, r)
        | `Preempt _ | `Scale _ -> None)
      timeline
  in
  (* Where each cached partitioning lives: the membership at the instant
     the entry became available. An entry whose placement references a
     since-departed executor is stale and must never serve a hit — the
     leave handler invalidates eagerly, and [stale_placement_hits]
     recounts the law independently on every hit. *)
  let placements : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let note_placement (k : Cache.key) ~available_s =
    Hashtbl.replace placements (Cache.key_id k) (live_at available_s)
  in
  let emit_cache_op op (k : Cache.key) ~bytes ~occupancy ~entries ~at_s =
    emit
      (Event.Cache_op
         {
           Event.op;
           graph = k.Cache.graph;
           strategy = k.Cache.strategy;
           num_partitions = k.Cache.num_partitions;
           bytes;
           occupancy_bytes = occupancy;
           entries;
           at_s;
         })
  in
  (* One [op] event per dropped entry, in the cache's order, each
     carrying the occupancy left after it: subtracted one entry at a
     time from the stats taken [before] the drop. Returns the final
     (occupancy, entries). *)
  let narrate_drops op ~(before : Cache.stats) ~at_s dropped =
    List.fold_left
      (fun (occ, ents) (k, b) ->
        let occ = occ -. b and ents = ents - 1 in
        emit_cache_op op k ~bytes:b ~occupancy:occ ~entries:ents ~at_s;
        (occ, ents))
      (before.Cache.bytes_in_cache, before.Cache.entries)
      dropped
  in
  (* Insert a freshly built partitioning, then narrate its evictions and
     the insert, or the rejection of an entry that can never fit. *)
  let insert_narrated k ~available_s ~pg ~bytes ~rebuild_s =
    let before = Cache.stats cache in
    match Cache.insert cache ~available_s k ~pg ~bytes ~rebuild_s with
    | `Inserted evicted ->
        note_placement k ~available_s;
        let occ, ents = narrate_drops "evict" ~before ~at_s:available_s evicted in
        emit_cache_op "insert" k ~bytes ~occupancy:(occ +. bytes) ~entries:(ents + 1)
          ~at_s:available_s
    | `Rejected ->
        emit_cache_op "reject" k ~bytes ~occupancy:before.Cache.bytes_in_cache
          ~entries:before.Cache.entries ~at_s:available_s
  in
  let stale_placement_hits = ref 0 in
  let joins = ref 0 and leaves = ref 0 and preemptions = ref 0 in
  let mpending =
    ref (List.filter_map (function `Scale e -> Some e | `Preempt _ -> None) timeline)
  in
  let process_membership ~upto =
    let fire, keep =
      List.partition (fun (step, _, _) -> float_of_int step <= upto) !mpending
    in
    mpending := keep;
    List.iter
      (fun (step, before, after) ->
        if after > before then begin
          incr joins;
          emit (Event.Executor_join { Event.step; count = after - before; executors = after })
        end
        else begin
          incr leaves;
          emit (Event.Executor_leave { Event.step; count = before - after; executors = after });
          (* Satellite law: entries placed on departed executors are
             dropped the instant the membership shrinks. *)
          let stale (k : Cache.key) =
            match Hashtbl.find_opt placements (Cache.key_id k) with
            | Some placed -> placed > after
            | None -> false
          in
          let before = Cache.stats cache in
          let dropped = Cache.invalidate cache ~pred:stale in
          List.iter
            (fun ((k : Cache.key), _) -> Hashtbl.remove placements (Cache.key_id k))
            dropped;
          ignore (narrate_drops "invalidate" ~before ~at_s:(float_of_int step) dropped)
        end)
      fire
  in
  (* --- multi-tenancy --- *)
  let weight_of tn =
    match List.assoc_opt tn tenant_weights with Some w -> w | None -> 1.0
  in
  let tenant_busy : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let busy_of tn = Option.value ~default:0.0 (Hashtbl.find_opt tenant_busy tn) in
  let note_busy tn s = Hashtbl.replace tenant_busy tn (busy_of tn +. s) in
  let fairness_violations = ref 0 in
  (* Memoized per-dataset graph (and its paper scale) and per
     (dataset, granularity, metric) advisor rankings — jobs sharing a
     dataset share the measurement, as a resident advisor service
     would. *)
  let graphs : (string, Graph.t * float * Datasets.spec) Hashtbl.t = Hashtbl.create 16 in
  let graph_of dataset =
    match Hashtbl.find_opt graphs dataset with
    | Some entry -> entry
    | None ->
        let spec = Datasets.find dataset in
        let g = Datasets.generate spec in
        let scale = float_of_int spec.Datasets.paper_edges /. float_of_int (Graph.num_edges g) in
        let entry = (g, scale, spec) in
        Hashtbl.replace graphs dataset entry;
        entry
  in
  let rankings : (string, Advisor.ranked list) Hashtbl.t = Hashtbl.create 16 in
  let ranked_for (job : Job.t) =
    let metric = Advisor.predictive_metric job.Job.algorithm in
    let key = Printf.sprintf "%s#%d#%s" job.Job.dataset job.Job.num_partitions metric in
    match Hashtbl.find_opt rankings key with
    | Some r -> r
    | None ->
        let g, _, _ = graph_of job.Job.dataset in
        let r = Advisor.measure job.Job.algorithm ~num_partitions:job.Job.num_partitions g in
        Hashtbl.replace rankings key r;
        r
  in
  let cluster_for (job : Job.t) = { cluster with Cluster.num_partitions = job.Job.num_partitions } in
  (* One fault realization per (job, attempt): the schedule's items stay
     exactly as specified, but the seeded draws (random faults, unpinned
     executors) differ per job and per retry — a retried job faces a
     fresh realization of the same fault environment, so a [rand@R]
     schedule can kill one attempt and spare the next. *)
  let faults_for (job : Job.t) ~attempt =
    match faults with
    | None -> None
    | Some (f : Faults.config) ->
        let mixed =
          Splitmix64.mix64
            (Int64.logxor
               (Int64.mul (Int64.of_int (job.Job.id + 1)) 0x9E3779B97F4A7C15L)
               (Int64.add
                  (Int64.of_int f.Faults.seed)
                  (Int64.mul (Int64.of_int attempt) 0xBF58476D1CE4E5B9L)))
        in
        Some { f with Faults.seed = Int64.to_int mixed land 0x3FFFFFFF }
  in
  (* Structural admission control: a malformed job must produce a failed
     record, never an exception out of the scheduler loop. *)
  let invalid_reason (job : Job.t) =
    if job.Job.num_partitions < 1 then
      Some (Printf.sprintf "num_partitions %d < 1" job.Job.num_partitions)
    else
      match Datasets.find job.Job.dataset with
      | _ -> None
      | exception Not_found -> Some (Printf.sprintf "unknown dataset %S" job.Job.dataset)
  in
  (* --- circuit breakers --- *)
  (* One breaker per (dataset, strategy): [breaker_k] consecutive
     aborted / error / out-of-memory attempts open it; while open (and
     inside the cooldown) selection routes around the strategy via the
     degraded cache-aware path. Past the cooldown the breaker is
     half-open: the next job that selects the strategy is the probe — a
     success closes the breaker, a failure re-arms the cooldown. Cells
     are (consecutive failures, open-since). *)
  let breakers : (string, int ref * float option ref) Hashtbl.t = Hashtbl.create 16 in
  let breaker_trips = ref [] in
  let breaker_key ~tenant ~dataset ~strategy =
    breaker_scope ~tenant ~dataset ^ "/" ^ strategy
  in
  let breaker_cell ~tenant ~dataset ~strategy =
    let key = breaker_key ~tenant ~dataset ~strategy in
    match Hashtbl.find_opt breakers key with
    | Some c -> c
    | None ->
        let c = (ref 0, ref None) in
        Hashtbl.replace breakers key c;
        c
  in
  let breaker_blocks ~at_s ~tenant ~dataset strategy_name =
    match breaker_k with
    | None -> false
    | Some _ -> (
        match Hashtbl.find_opt breakers (breaker_key ~tenant ~dataset ~strategy:strategy_name) with
        | Some (_, { contents = Some since }) -> at_s < since +. breaker_cooldown_s
        | _ -> false)
  in
  let breaker_note ~at_s ~tenant ~dataset ~strategy ok =
    match breaker_k with
    | None -> ()
    | Some k ->
        let fails, open_since = breaker_cell ~tenant ~dataset ~strategy in
        let scope = breaker_scope ~tenant ~dataset in
        if ok then begin
          fails := 0;
          match !open_since with
          | None -> ()
          | Some _ ->
              open_since := None;
              breaker_trips :=
                {
                  trip_tenant = tenant;
                  trip_dataset = dataset;
                  trip_strategy = strategy;
                  trip_at_s = at_s;
                  opened = false;
                  trip_failures = 0;
                }
                :: !breaker_trips;
              emit (Event.Breaker_close { Event.dataset = scope; strategy; at_s })
        end
        else begin
          incr fails;
          (* Trip on the k-th consecutive failure; a failed half-open
             probe re-arms the open state (a fresh cooldown). *)
          if !fails >= k || !open_since <> None then begin
            open_since := Some at_s;
            breaker_trips :=
              {
                trip_tenant = tenant;
                trip_dataset = dataset;
                trip_strategy = strategy;
                trip_at_s = at_s;
                opened = true;
                trip_failures = !fails;
              }
              :: !breaker_trips;
            emit (Event.Breaker_open { Event.dataset = scope; strategy; at_s; failures = !fails })
          end
        end
  in
  (* The degraded selection path, used under queue backpressure and when
     the preferred strategy's breaker is open: best-ranked strategy that
     is already cached (zero build cost) and not breaker-blocked, then
     the best non-blocked strategy, then the overall best as a last
     resort (everything blocked — the probe). *)
  let degraded_pick ~at_s (job : Job.t) =
    let ranked = ranked_for job in
    let cached =
      Cache.cached_strategies cache ~at_s ~graph:job.Job.dataset
        ~num_partitions:job.Job.num_partitions
    in
    let is_cached (r : Advisor.ranked) =
      List.exists (String.equal (Strategy.to_string r.Advisor.strategy)) cached
    in
    let unblocked (r : Advisor.ranked) =
      not
        (breaker_blocks ~at_s ~tenant:job.Job.tenant ~dataset:job.Job.dataset
           (Strategy.to_string r.Advisor.strategy))
    in
    match List.find_opt (fun r -> is_cached r && unblocked r) ranked with
    | Some r -> r.Advisor.strategy
    | None -> (
        match List.find_opt unblocked ranked with
        | Some r -> r.Advisor.strategy
        | None -> (List.hd ranked).Advisor.strategy)
  in
  let choose_strategy ?(depth = 0) ~at_s (job : Job.t) =
    let preferred =
      match selection with
      | Heuristic ->
          let _, _, spec = graph_of job.Job.dataset in
          let size =
            Advisor.classify ~paper_scale_edges:(float_of_int spec.Datasets.paper_edges)
          in
          Advisor.heuristic job.Job.algorithm ~size ~num_partitions:job.Job.num_partitions
      | Measured -> (List.hd (ranked_for job)).Advisor.strategy
      | Cache_aware threshold -> (
          let ranked = ranked_for job in
          let best = List.hd ranked in
          let cached =
            Cache.cached_strategies cache ~at_s ~graph:job.Job.dataset
              ~num_partitions:job.Job.num_partitions
          in
          let is_cached (r : Advisor.ranked) =
            List.exists (String.equal (Strategy.to_string r.Advisor.strategy)) cached
          in
          match List.find_opt is_cached ranked with
          | Some r
            when (r.Advisor.score -. best.Advisor.score) /. Float.max best.Advisor.score 1.0
                 <= threshold ->
              r.Advisor.strategy
          | Some _ | None -> best.Advisor.strategy)
    in
    let overloaded = match backpressure with Some w -> depth > w | None -> false in
    if overloaded then degraded_pick ~at_s job
    else if
      breaker_blocks ~at_s ~tenant:job.Job.tenant ~dataset:job.Job.dataset
        (Strategy.to_string preferred)
    then degraded_pick ~at_s job
    else preferred
  in
  let metrics_of (job : Job.t) strategy =
    let name = Strategy.to_string strategy in
    let r =
      List.find
        (fun (r : Advisor.ranked) -> String.equal (Strategy.to_string r.Advisor.strategy) name)
        (ranked_for job)
    in
    r.Advisor.metrics
  in
  let predicted_service ~at_s (job : Job.t) =
    let g, scale, _ = graph_of job.Job.dataset in
    let strategy = choose_strategy ~at_s job in
    let m = metrics_of job strategy in
    let cl = cluster_for job in
    let key =
      {
        Cache.graph = job.Job.dataset;
        strategy = Strategy.to_string strategy;
        num_partitions = job.Job.num_partitions;
      }
    in
    let build =
      if Cache.mem cache ~at_s key then 0.0
      else Advisor.predicted_build_s ~cluster:cl ~scale g m
    in
    build +. Advisor.predicted_exec_s ~cluster:cl ~scale job.Job.algorithm g m
  in
  (* Per-job SLO deadline, memoized at first use (admission or SJF
     ranking): an absolute offset from arrival, or the advisor-predicted
     service time times a factor — so a job's SLO scales with what the
     advisor believes the job should cost. The deadline never moves
     across retries: the SLO is a property of the job, not the
     attempt. *)
  let deadlines : (int, float) Hashtbl.t = Hashtbl.create 16 in
  (* A tenant-level SLO overrides the global one: premium tenants buy
     tighter (or looser) deadlines without touching anyone else's. *)
  let deadline_spec_for (job : Job.t) =
    match List.assoc_opt job.Job.tenant tenant_deadlines with
    | Some d -> Some d
    | None -> deadline
  in
  let deadline_of (job : Job.t) =
    match deadline_spec_for job with
    | None -> None
    | Some d -> (
        match Hashtbl.find_opt deadlines job.Job.id with
        | Some v -> Some v
        | None ->
            let v =
              match d with
              | Absolute s -> job.Job.arrival_s +. s
              | Factor f ->
                  job.Job.arrival_s +. (f *. predicted_service ~at_s:job.Job.arrival_s job)
            in
            Hashtbl.replace deadlines job.Job.id v;
            Some v)
  in
  let run_algorithm (job : Job.t) prepared =
    match job.Job.algorithm with
    | Advisor.Pagerank -> snd (Pipeline.pagerank ?iterations prepared)
    | Advisor.Connected_components -> snd (Pipeline.connected_components ?iterations prepared)
    | Advisor.Triangle_count ->
        let _, _, trace = Pipeline.triangles prepared in
        trace
    | Advisor.Shortest_paths ->
        let g, _, _ = graph_of job.Job.dataset in
        let job_seed =
          Splitmix64.mix64 (Int64.logxor seed (Int64.mul (Int64.of_int (job.Job.id + 1)) 0x9E3779B97F4A7C15L))
        in
        let landmarks = Sssp.pick_landmarks ~seed:job_seed ~count:3 g in
        snd (Pipeline.shortest_paths ~landmarks prepared)
  in
  (* Streaming ingestion: every [mutate_every]-th job launch first lands
     a mutation batch on its own dataset. The memoized graph advances,
     the advisor's rankings for that dataset are forgotten, and the
     cache loses exactly that dataset's keys. On the refresh path the
     incremental repair runs synchronously with the batch — the
     refreshed partitionings are valid the instant it completes, and
     the triggering job is delayed by the summed refresh price (the
     returned value). On the rebuild path nothing is re-inserted: the
     next job on the dataset pays its full partition build on the
     miss. *)
  let launches = ref 0 in
  let mutation_log = ref [] in
  let apply_mutations ~at_s (job : Job.t) =
    match mutations with
    | None -> 0.0
    | Some cfg ->
        incr launches;
        if !launches mod mutate_every <> 0 then 0.0
        else begin
          let batch = !launches / mutate_every in
          let dataset = job.Job.dataset in
          let g, _, spec = graph_of dataset in
          let delta = Mutation.plan cfg ~batch g in
          if Mutation.is_empty delta then 0.0
          else begin
            let edges_before = Graph.num_edges g in
            let new_g = Mutation.apply g delta in
            let new_scale =
              float_of_int spec.Datasets.paper_edges /. float_of_int (Graph.num_edges new_g)
            in
            let pred (k : Cache.key) = String.equal k.Cache.graph dataset in
            (* Price refreshing each resident partitioning of this
               dataset against rebuilding it on the post-delta graph.
               Every resident entry was built against the memoized
               pre-delta graph (an earlier batch dropped anything
               older), so the refresh is well-defined. *)
            let resident =
              List.map
                (fun ((k : Cache.key), pg) ->
                  let refreshed =
                    Incremental.refresh mutation_heuristic
                      ~num_partitions:k.Cache.num_partitions ~graph:g
                      ~assignment:(Pgraph.assignment pg) delta
                  in
                  let refresh_s =
                    Repartition.refresh_price ~cluster ~scale:new_scale
                      ~placed_edges:refreshed.Incremental.placed_edges
                      ~repaired_vertices:refreshed.Incremental.repaired_vertices
                      ~moved_replicas:refreshed.Incremental.moved_replicas ()
                  in
                  let rebuild_s =
                    Repartition.rebuild_price ~cluster ~scale:new_scale new_g
                      (Pgraph.metrics pg)
                  in
                  (k, refreshed, refresh_s, rebuild_s))
                (Cache.peek_entries cache ~pred)
            in
            let sumf f = List.fold_left (fun acc x -> acc +. f x) 0.0 resident in
            let refresh_total = sumf (fun (_, _, r, _) -> r) in
            let rebuild_total = sumf (fun (_, _, _, b) -> b) in
            let refresh_chosen =
              match mutation_mode with
              | Force_refresh -> true
              | Force_rebuild -> false
              | Priced -> refresh_total <= rebuild_total
            in
            (* Advance the memoized graph; the advisor re-measures on the
               next job that needs a ranking for this dataset. *)
            Hashtbl.replace graphs dataset (new_g, new_scale, spec);
            let prefix = dataset ^ "#" in
            let stale =
              (* lint: order-independent *)
              Hashtbl.fold
                (fun key _ acc ->
                  if
                    String.length key >= String.length prefix
                    && String.equal (String.sub key 0 (String.length prefix)) prefix
                  then key :: acc
                  else acc)
                rankings []
            in
            List.iter (Hashtbl.remove rankings) stale;
            let before = Cache.stats cache in
            let dropped = Cache.invalidate cache ~pred in
            ignore (narrate_drops "invalidate" ~before ~at_s dropped);
            if refresh_chosen then
              List.iter
                (fun ((k : Cache.key), (refreshed : Incremental.refreshed), _refresh_s, rebuild_s)
                   ->
                  let pg' =
                    Pgraph.build new_g ~num_partitions:k.Cache.num_partitions
                      refreshed.Incremental.assignment
                  in
                  let bytes = pgraph_bytes ~scale:new_scale pg' in
                  (* The repair is synchronous with the batch: the entry
                     is valid the moment the (delayed) triggering job
                     looks it up. The refresh price is charged as the
                     returned stream delay, not as entry latency. *)
                  insert_narrated k ~available_s:at_s ~pg:pg' ~bytes ~rebuild_s)
                resident;
            let sumi f =
              List.fold_left
                (fun acc (_, (r : Incremental.refreshed), _, _) -> acc + f r)
                0 resident
            in
            emit
              (Event.Mutation_batch
                 {
                   Event.batch;
                   graph = dataset;
                   inserts = Array.length delta.Mutation.inserts;
                   deletes = Array.length delta.Mutation.deletes;
                   edges_before;
                   edges_after = Graph.num_edges new_g;
                   at_s;
                 });
            emit
              (Event.Repartition
                 {
                   Event.batch;
                   graph = dataset;
                   choice = (if refresh_chosen then "refresh" else "rebuild");
                   refresh_s = refresh_total;
                   rebuild_s = rebuild_total;
                   placed_edges = sumi (fun r -> r.Incremental.placed_edges);
                   repaired_vertices = sumi (fun r -> r.Incremental.repaired_vertices);
                   moved_replicas = sumi (fun r -> r.Incremental.moved_replicas);
                   at_s;
                 });
            mutation_log :=
              {
                mut_batch = batch;
                mut_dataset = dataset;
                mut_at_s = at_s;
                mut_inserts = Array.length delta.Mutation.inserts;
                mut_deletes = Array.length delta.Mutation.deletes;
                mut_edges_after = Graph.num_edges new_g;
                mut_refresh_s = refresh_total;
                mut_rebuild_s = rebuild_total;
                mut_choice = (if refresh_chosen then "refresh" else "rebuild");
                mut_dropped_entries = List.length dropped;
                mut_refreshed_entries = (if refresh_chosen then List.length resident else 0);
              }
              :: !mutation_log;
            if refresh_chosen then refresh_total else 0.0
          end
        end
  in
  (* One attempt of one job. Returns the attempt's record plus its
     structural status: [`Ok] (recorded as-is), [`Lost] (the cluster
     died past the run's crash budget — candidate for requeueing),
     [`Preempted] (the slot was reclaimed mid-run — requeued without
     consuming the retry budget), or [`Error reason] (an exception from
     the pipeline, converted into a failed record so nothing escapes
     the scheduler loop). *)
  let preempt_no : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let preempts_of (j : Job.t) =
    Option.value ~default:0 (Hashtbl.find_opt preempt_no j.Job.id)
  in
  let execute ~start_s ~attempt ~slot_preempts ~depth (job : Job.t) =
    let g, scale, _ = graph_of job.Job.dataset in
    let dl = deadline_of job in
    let strategy = choose_strategy ~depth ~at_s:start_s job in
    let sname = Strategy.to_string strategy in
    let ckey =
      { Cache.graph = job.Job.dataset; strategy = sname; num_partitions = job.Job.num_partitions }
    in
    let cached = Cache.find cache ~at_s:start_s ckey in
    (* Stale-placement law: a hit served from an entry whose recorded
       placement references executors beyond the current membership
       would hand the job partitions homed on departed hosts. The leave
       handler invalidates eagerly, so this recount must stay zero. *)
    (match cached with
    | Some _ -> (
        match Hashtbl.find_opt placements (Cache.key_id ckey) with
        | Some placed when placed > live_at start_s -> incr stale_placement_hits
        | _ -> ())
    | None -> ());
    let job_faults = faults_for job ~attempt in
    let prepared, hit =
      match cached with
      | Some pg ->
          ( Pipeline.of_pgraph ~cluster:(cluster_for job) ~scale ?checkpoint_every
              ?faults:job_faults ?speculation ~partitioner:(Partitioner.Hash strategy) pg,
            true )
      | None ->
          ( Pipeline.prepare ~cluster:(cluster_for job) ~partitioner:(Partitioner.Hash strategy)
              ~scale ?checkpoint_every ?faults:job_faults ?speculation
              ~algorithm:job.Job.algorithm g,
            false )
    in
    let snapshot = Cache.stats cache in
    emit_cache_op
      (if hit then "hit" else "miss")
      ckey
      ~bytes:(if hit then pgraph_bytes ~scale prepared.Pipeline.pg else 0.0)
      ~occupancy:snapshot.Cache.bytes_in_cache ~entries:snapshot.Cache.entries ~at_s:start_s;
    emit
      (Event.Job_start
         {
           Event.job_id = job.Job.id;
           strategy = sname;
           cache_hit = hit;
           start_s;
           queue_s = start_s -. job.Job.arrival_s;
         });
    let mk_record ~outcome ~recoveries ~recovery_s ~speculations ~partition_s ~exec_s =
      {
        job;
        strategy = sname;
        cache_hit = hit;
        outcome;
        attempts = attempt;
        preemptions = preempts_of job;
        recoveries;
        recovery_s;
        speculations;
        deadline_s = dl;
        failed = false;
        start_s;
        queue_s = start_s -. job.Job.arrival_s;
        partition_s;
        exec_s;
        finish_s = start_s +. partition_s +. exec_s;
      }
    in
    match run_algorithm job prepared with
    | exception (Invalid_argument reason | Failure reason) ->
        let record =
          mk_record ~outcome:"error" ~recoveries:0 ~recovery_s:0.0 ~speculations:0
            ~partition_s:0.0 ~exec_s:0.0
        in
        emit
          (Event.Job_end
             {
               Event.job_id = job.Job.id;
               outcome = record.outcome;
               partition_s = 0.0;
               exec_s = 0.0;
               finish_s = record.finish_s;
             });
        (record, `Error reason)
    | trace ->
        (* The BSP engines run without a telemetry handle here (the
           workload stream narrates at job granularity), so itemize this
           attempt's speculative clones from the trace it returned. *)
        List.iter
          (fun s -> List.iter emit (Event.speculation_events s))
          trace.Trace.speculations;
        (* Decompose the real trace: the engines always record the load
           and the step -1 build stage, whether or not the partitioning
           was freshly built — a cache hit is exactly the run that skips
           them. *)
        let build_s =
          match
            List.find_opt (fun (s : Trace.superstep) -> s.Event.step = -1) trace.Trace.supersteps
          with
          | Some s -> s.Event.time_s
          | None -> 0.0
        in
        let partition_cost = trace.Trace.load_s +. build_s in
        let exec_total = trace.Trace.total_s -. partition_cost in
        let partition_s = if hit then 0.0 else partition_cost in
        let lost = trace.Trace.outcome = Trace.Aborted in
        let natural_finish = start_s +. partition_s +. exec_total in
        (* An SLO cancel kills the run at its deadline: the slot frees
           there, the work past the deadline is never paid — but the
           work up to it is, which is the wasted-work accounting. Lost
           (aborted) runs keep their own outcome; the retry gate decides
           whether the deadline still leaves room to requeue. *)
        let overdue =
          (not lost) && match dl with Some d -> natural_finish > d | None -> false
        in
        (* Spot preemption: the earliest scheduled reclamation of this
           slot that lands strictly inside the attempt's occupancy wins
           over both the natural outcome and a later deadline cancel —
           the slot is simply taken away at that instant. A later
           attempt on the same slot starts past the reclamation, so a
           preempt item fires at most once. *)
        let occupied_until =
          if overdue then (match dl with Some d -> d | None -> assert false)
          else natural_finish
        in
        let preempt =
          List.fold_left
            (fun acc (pt, r) ->
              if start_s < pt && pt < occupied_until then
                match acc with Some (best, _) when best <= pt -> acc | _ -> Some (pt, r)
              else acc)
            None slot_preempts
        in
        (* A partitioning built by a run whose cluster then died never
           becomes reusable — it was resident on the lost executors. A
           build that would only have finished past the job's deadline
           cancel (or its slot's reclamation) never completed either. *)
        if
          (not hit) && (not lost)
          && (match dl with Some d -> start_s +. partition_cost <= d | None -> true)
          && (match preempt with
             | Some (pt, _) -> start_s +. partition_cost <= pt
             | None -> true)
        then begin
          insert_narrated ckey ~available_s:(start_s +. partition_cost) ~pg:prepared.Pipeline.pg
            ~bytes:(pgraph_bytes ~scale prepared.Pipeline.pg) ~rebuild_s:partition_cost
        end;
        let record =
          match preempt with
          | Some (pt, _) ->
              let run_s = pt -. start_s in
              let truncated_partition_s = Float.min partition_s run_s in
              mk_record ~outcome:"preempted" ~recoveries:(Trace.num_recoveries trace)
                ~recovery_s:trace.Trace.recovery_s ~speculations:(Trace.num_speculations trace)
                ~partition_s:truncated_partition_s
                ~exec_s:(run_s -. truncated_partition_s)
          | None ->
              if overdue then begin
                let d = match dl with Some d -> d | None -> assert false in
                let run_s = d -. start_s in
                let truncated_partition_s = Float.min partition_s run_s in
                mk_record ~outcome:"deadline" ~recoveries:(Trace.num_recoveries trace)
                  ~recovery_s:trace.Trace.recovery_s ~speculations:(Trace.num_speculations trace)
                  ~partition_s:truncated_partition_s
                  ~exec_s:(run_s -. truncated_partition_s)
              end
              else
                mk_record
                  ~outcome:(Trace.outcome_name trace.Trace.outcome)
                  ~recoveries:(Trace.num_recoveries trace) ~recovery_s:trace.Trace.recovery_s
                  ~speculations:(Trace.num_speculations trace) ~partition_s ~exec_s:exec_total
        in
        emit
          (Event.Job_end
             {
               Event.job_id = job.Job.id;
               outcome = record.outcome;
               partition_s = record.partition_s;
               exec_s = record.exec_s;
               finish_s = record.finish_s;
             });
        (match preempt with
        | Some (pt, r) ->
            emit
              (Event.Fault_injected
                 {
                   Event.step = int_of_float pt;
                   kind = "preempt";
                   executor = -1;
                   detail =
                     Printf.sprintf "slot reclaimed under job %d (attempt %d, backoff r%d)"
                       job.Job.id attempt r;
                 });
            (record, `Preempted (pt, r))
        | None ->
            if overdue then begin
              let d = match dl with Some d -> d | None -> assert false in
              emit
                (Event.Deadline_exceeded
                   {
                     Event.job_id = job.Job.id;
                     deadline_s = d;
                     overshoot_s = natural_finish -. d;
                     started = true;
                   });
              (record, `Deadline (natural_finish -. d))
            end
            else (record, if lost then `Lost else `Ok))
  in
  (* --- discrete-event loop over executor slots --- *)
  (* The future queue carries [(ready_s, job)]: initially the job's own
     arrival instant, and for a requeued job its backed-off resubmit
     instant. The job record itself is never altered, so every record
     and event keeps the original arrival. *)
  let by_ready (ra, (a : Job.t)) (rb, (b : Job.t)) =
    if ra <> rb then Float.compare ra rb else compare a.Job.id b.Job.id
  in
  let rec insert_future entry = function
    | [] -> [ entry ]
    | e :: rest -> if by_ready entry e < 0 then entry :: e :: rest else e :: insert_future entry rest
  in
  let sorted = List.sort (fun (a : Job.t) b -> by_ready (a.Job.arrival_s, a) (b.Job.arrival_s, b)) jobs in
  List.iter
    (fun (j : Job.t) ->
      emit
        (Event.Job_submit
           {
             Event.job_id = j.Job.id;
             algorithm = Advisor.algorithm_name j.Job.algorithm;
             dataset = j.Job.dataset;
             num_partitions = j.Job.num_partitions;
             arrival_s = j.Job.arrival_s;
           }))
    sorted;
  let records = ref [] in
  let failures = ref [] in
  let retries = ref 0 in
  (* Malformed jobs fail structurally at admission: a zero-attempt
     failed record, no slot time, no cache traffic. *)
  let admitted =
    List.filter
      (fun (j : Job.t) ->
        match invalid_reason j with
        | None -> true
        | Some reason ->
            records :=
              {
                job = j;
                strategy = "-";
                cache_hit = false;
                outcome = "invalid";
                attempts = 0;
                preemptions = 0;
                recoveries = 0;
                recovery_s = 0.0;
                speculations = 0;
                deadline_s = None;
                failed = true;
                start_s = j.Job.arrival_s;
                queue_s = 0.0;
                partition_s = 0.0;
                exec_s = 0.0;
                finish_s = j.Job.arrival_s;
              }
              :: !records;
            failures := { job_id = j.Job.id; failed_attempts = 0; reason } :: !failures;
            false)
      sorted
  in
  let future = ref (List.map (fun (j : Job.t) -> (j.Job.arrival_s, j)) admitted) in
  let attempt_no : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let attempt_of (j : Job.t) = Option.value ~default:1 (Hashtbl.find_opt attempt_no j.Job.id) in
  let pending = ref [] in
  let slot_free = Array.make max_slots 0.0 in
  let more () = match (!future, !pending) with [], [] -> false | _ -> true in
  let pick_base ~at_s = function
    | [] -> None
    | first :: rest ->
        let better (a : Job.t) (b : Job.t) =
          match policy with
          | Fifo ->
              if a.Job.arrival_s <> b.Job.arrival_s then a.Job.arrival_s < b.Job.arrival_s
              else a.Job.id < b.Job.id
          | Sjf ->
              let ca = predicted_service ~at_s a and cb = predicted_service ~at_s b in
              if ca <> cb then ca < cb else a.Job.id < b.Job.id
        in
        Some (List.fold_left (fun best c -> if better c best then c else best) first rest)
  in
  (* Weighted fair sharing (DRF over the single bottleneck resource,
     slot busy-time): serve the pending tenant with the smallest
     weighted service deficit, then let the scheduling policy order the
     jobs within the chosen tenant. Without [fairness] the policy ranges
     over the whole queue — a greedy tenant can starve the others. *)
  let pick ~at_s queue =
    if not fairness then pick_base ~at_s queue
    else
      match queue with
      | [] -> None
      | first :: _ ->
          let deficit tn = busy_of tn /. weight_of tn in
          let tenants =
            List.fold_left
              (fun acc (j : Job.t) ->
                if List.exists (String.equal j.Job.tenant) acc then acc
                else j.Job.tenant :: acc)
              [] queue
            |> List.rev
          in
          let chosen =
            List.fold_left
              (fun best tn ->
                let d = deficit tn and db = deficit best in
                if d < db || (d = db && String.compare tn best < 0) then tn else best)
              first.Job.tenant tenants
          in
          (* Independent recount of the fairness law: no pending tenant
             may hold a strictly smaller weighted deficit than the
             tenant just served. *)
          if List.exists (fun tn -> deficit tn < deficit chosen) tenants then
            incr fairness_violations;
          pick_base ~at_s
            (List.filter (fun (j : Job.t) -> String.equal j.Job.tenant chosen) queue)
  in
  let fail record reason =
    records := { record with failed = true } :: !records;
    failures := { job_id = record.job.Job.id; failed_attempts = record.attempts; reason } :: !failures
  in
  (* A job the admission queue refused: a failed zero-cost record at the
     shed instant. Sheds never consume a retry attempt and never touch
     the cache. *)
  let shed ?(why = `Admission) ~at_s ~depth (j : Job.t) =
    let launched = max 0 (attempt_of j - 1) in
    let record =
      {
        job = j;
        strategy = "-";
        cache_hit = false;
        outcome = "shed";
        attempts = launched;
        preemptions = preempts_of j;
        recoveries = 0;
        recovery_s = 0.0;
        speculations = 0;
        deadline_s = Hashtbl.find_opt deadlines j.Job.id;
        failed = false;
        start_s = at_s;
        queue_s = at_s -. j.Job.arrival_s;
        partition_s = 0.0;
        exec_s = 0.0;
        finish_s = at_s;
      }
    in
    let policy_str =
      match why with `Admission -> shed_policy_name shed_policy | `Quota -> "quota"
    in
    fail record
      (match why with
      | `Admission ->
          Printf.sprintf "shed by admission control (%s, queue depth %d)"
            (shed_policy_name shed_policy) depth
      | `Quota ->
          Printf.sprintf "shed by the tenant quota (%s already has %d job(s) queued)"
            j.Job.tenant depth);
    emit
      (Event.Job_shed
         { Event.job_id = j.Job.id; at_s; queue_depth = depth; policy = policy_str })
  in
  (* Bounded admission: a first-attempt job meeting a full queue is shed
     ([Reject]) or displaces the oldest queued job ([Drop_oldest]).
     Requeued retries bypass the bound — they already held a queue claim
     when they first ran. *)
  let admit ~ready (j : Job.t) =
    if attempt_of j > 1 then pending := !pending @ [ j ]
    else
      let quota_blocked =
        match tenant_quota with
        | None -> None
        | Some q ->
            let mine =
              List.length
                (List.filter
                   (fun (x : Job.t) -> String.equal x.Job.tenant j.Job.tenant)
                   !pending)
            in
            if mine >= q then Some mine else None
      in
      match quota_blocked with
      | Some mine ->
          (* Per-tenant admission quota: the tenant already holds its
             full share of the queue, so the job is throttled and shed
             — other tenants' queue claims are untouched. *)
          emit
            (Event.Tenant_throttle
               { Event.tenant = j.Job.tenant; job_id = j.Job.id; at_s = ready; pending = mine });
          shed ~why:`Quota ~at_s:ready ~depth:mine j
      | None -> (
          match queue_bound with
      | Some bound when List.length !pending >= bound -> (
          let depth = List.length !pending in
          match shed_policy with
          | Reject -> shed ~at_s:ready ~depth j
          | Drop_oldest ->
              let oldest =
                List.fold_left
                  (fun (best : Job.t) (c : Job.t) ->
                    if
                      c.Job.arrival_s < best.Job.arrival_s
                      || (c.Job.arrival_s = best.Job.arrival_s && c.Job.id < best.Job.id)
                    then c
                    else best)
                  (List.hd !pending) (List.tl !pending)
              in
              pending := List.filter (fun (x : Job.t) -> x.Job.id <> oldest.Job.id) !pending;
              shed ~at_s:ready ~depth oldest;
              pending := !pending @ [ j ])
          | _ -> pending := !pending @ [ j ])
  in
  (* SLO enforcement in the queue: any pending job already past its
     deadline is cancelled where it stands — a failed record pinned at
     the deadline instant, no slot time, no retry consumed. *)
  (* One queue-style deadline cancel: a failed record pinned at the
     deadline instant, no slot time, no retry consumed. Shared by the
     queue cull and the late-start cancel (a mutation batch holding the
     slot past the launching job's own deadline). *)
  let deadline_cull ~at_s (j : Job.t) =
    let d = match deadline_of j with Some d -> d | None -> assert false in
    let launched = max 0 (attempt_of j - 1) in
    let record =
      {
        job = j;
        strategy = "-";
        cache_hit = false;
        outcome = "deadline";
        attempts = launched;
        preemptions = preempts_of j;
        recoveries = 0;
        recovery_s = 0.0;
        speculations = 0;
        deadline_s = Some d;
        failed = false;
        start_s = d;
        queue_s = d -. j.Job.arrival_s;
        partition_s = 0.0;
        exec_s = 0.0;
        finish_s = d;
      }
    in
    fail record (Printf.sprintf "missed its SLO deadline (%.2f s) in the queue" d);
    emit
      (Event.Deadline_exceeded
         { Event.job_id = j.Job.id; deadline_s = d; overshoot_s = at_s -. d; started = false })
  in
  let cull_expired ~at_s =
    match (deadline, tenant_deadlines) with
    | None, [] -> ()
    | _ ->
        let expired, alive =
          List.partition
            (fun (j : Job.t) ->
              match deadline_of j with Some d -> at_s >= d | None -> false)
            !pending
        in
        pending := alive;
        List.iter (deadline_cull ~at_s) expired
  in
  while more () do
    (* The next launch goes to the slot that can usably run soonest:
       free time for a live slot, the (re)join instant for one that is
       not yet (or no longer) a member. Slot 0 is always live, so the
       scan always finds a candidate. *)
    let slot = ref 0 in
    let best = ref (match slot_usable_from 0 slot_free.(0) with Some t -> t | None -> 0.0) in
    for i = 1 to max_slots - 1 do
      match slot_usable_from i slot_free.(i) with
      | Some t when t < !best ->
          slot := i;
          best := t
      | Some _ | None -> ()
    done;
    let t0 = !best in
    (* With an empty queue the slot idles until the next ready job. *)
    let t =
      match (!pending, !future) with
      | [], (ready, _) :: _ -> Float.max t0 ready
      | _ -> t0
    in
    (* An idle jump may carry the chosen slot past a leave that retires
       it; re-anchor on its next usable instant. *)
    let t = match slot_usable_from !slot t with Some t' -> t' | None -> t in
    let arrived, rest = List.partition (fun (ready, _) -> ready <= t) !future in
    future := rest;
    List.iter (fun (ready, j) -> admit ~ready j) arrived;
    cull_expired ~at_s:t;
    match pick ~at_s:t !pending with
    | None -> process_membership ~upto:t
    | Some job -> (
        pending := List.filter (fun (j : Job.t) -> j.Job.id <> job.Job.id) !pending;
        let mutation_delay_s = apply_mutations ~at_s:t job in
        let start_s = t +. mutation_delay_s in
        process_membership ~upto:start_s;
        match deadline_of job with
        | Some d when start_s >= d ->
            (* The mutation batch this job triggered held the slot past
               the job's own SLO deadline: the run never starts. The
               job is cancelled cull-style — record pinned at the
               deadline, no slot time billed to it, no retry consumed —
               while the mutation work keeps the slot busy until it
               finished. *)
            deadline_cull ~at_s:start_s job;
            slot_free.(!slot) <- start_s
        | _ -> (
        let attempt = attempt_of job in
        let record, status =
          execute ~start_s ~attempt ~slot_preempts:(preempts_for !slot)
            ~depth:(List.length !pending) job
        in
        slot_free.(!slot) <- record.finish_s;
        note_busy job.Job.tenant (record.partition_s +. record.exec_s);
        (* The breaker judges the attempt's real verdict: aborted, error
           and out-of-memory count against the (tenant, dataset,
           strategy) triple; deadline cancels and preemptions are
           environment, not a strategy failure, and carry no verdict. *)
        (match status with
        | `Deadline _ | `Preempted _ -> ()
        | (`Ok | `Error _ | `Lost) as s ->
            let ok =
              match s with
              | `Error _ | `Lost -> false
              | `Ok -> not (String.equal record.outcome "out-of-memory")
            in
            breaker_note ~at_s:record.finish_s ~tenant:job.Job.tenant ~dataset:job.Job.dataset
              ~strategy:record.strategy ok);
        match status with
        | `Ok -> records := record :: !records
        | `Error reason -> fail record reason
        | `Deadline overshoot ->
            fail record
              (Printf.sprintf "cancelled at its SLO deadline (ran %.2f s over)" overshoot)
        | `Preempted (_, r) ->
            (* Spot reclamation is an involuntary failure — the same
               rule that keeps sheds and deadline culls from consuming
               the retry budget applies: the job requeues with a fresh
               attempt but its budget untouched, unless its SLO leaves
               no room to resubmit. *)
            incr preemptions;
            Hashtbl.replace preempt_no job.Job.id (preempts_of job + 1);
            let delay_s = retry_delay_s ~attempt:(max 1 r) in
            let resubmit_s = record.finish_s +. delay_s in
            let deadline_allows =
              match deadline_of job with Some d -> resubmit_s < d | None -> true
            in
            if deadline_allows then begin
              emit (Event.Job_retry { Event.job_id = job.Job.id; attempt; delay_s; resubmit_s });
              incr retries;
              Hashtbl.replace attempt_no job.Job.id (attempt + 1);
              future := insert_future (resubmit_s, job) !future
            end
            else
              (* The record was built before this preemption was
                 counted; refresh it so the conservation law (summed
                 record preemptions = the report counter) holds. *)
              fail
                { record with preemptions = preempts_of job }
                (Printf.sprintf
                   "preempted and the SLO deadline leaves no time to resubmit (%d attempt(s))"
                   attempt)
        | `Lost ->
            (* The job's cluster died past its crash budget: every cached
               partitioning was resident on it, so the whole cache is
               invalidated before anything else runs. *)
            let before = Cache.stats cache in
            ignore
              (narrate_drops "invalidate" ~before ~at_s:record.finish_s (Cache.invalidate_all cache));
            let delay_s = retry_delay_s ~attempt in
            let resubmit_s = record.finish_s +. delay_s in
            (* A requeue is pointless when the backed-off resubmission
               would already land past the job's SLO deadline — the
               attempt is not consumed, the job fails here and now. *)
            let deadline_allows =
              match deadline_of job with Some d -> resubmit_s < d | None -> true
            in
            (* Preempted attempts were involuntary: only the voluntary
               ones count against the retry budget. *)
            if attempt - preempts_of job <= max_retries && deadline_allows then begin
              emit
                (Event.Job_retry { Event.job_id = job.Job.id; attempt; delay_s; resubmit_s });
              incr retries;
              Hashtbl.replace attempt_no job.Job.id (attempt + 1);
              future := insert_future (resubmit_s, job) !future
            end
            else if not deadline_allows then
              fail record
                (Printf.sprintf
                   "cluster lost and the SLO deadline leaves no time to retry (%d attempt(s))"
                   attempt)
            else
              fail record
                (Printf.sprintf "cluster lost beyond the retry budget (%d attempt(s))" attempt)))
  done;
  (* Flush scale events past the last launch so the event stream and
     the report agree on the whole spec. *)
  process_membership ~upto:infinity;
  let records = List.sort (fun a b -> compare a.job.Job.id b.job.Job.id) !records in
  let failures =
    List.sort (fun (a : job_failure) b -> compare a.job_id b.job_id) !failures
  in
  let makespan_s = List.fold_left (fun acc r -> Float.max acc r.finish_s) 0.0 records in
  let total_queue_s = List.fold_left (fun acc r -> acc +. r.queue_s) 0.0 records in
  let total_partition_s = List.fold_left (fun acc r -> acc +. r.partition_s) 0.0 records in
  let total_exec_s = List.fold_left (fun acc r -> acc +. r.exec_s) 0.0 records in
  {
    policy;
    selection;
    eviction;
    budget_bytes;
    slots;
    seed;
    max_retries;
    fault_spec = Option.map (fun (f : Faults.config) -> f.Faults.raw) faults;
    checkpoint_every;
    queue_bound;
    shed_policy;
    deadline;
    breaker_k;
    breaker_cooldown_s;
    backpressure;
    speculation;
    mutation_spec = Option.map (fun (c : Mutation.config) -> c.Mutation.raw) mutations;
    mutate_every;
    mutation_mode;
    scale_spec = Option.map (fun (c : Elastic.config) -> c.Elastic.raw) scale_events;
    tenant_weights;
    tenant_quota;
    tenant_deadlines;
    fairness;
    records;
    failures;
    breaker_trips = List.rev !breaker_trips;
    mutations = List.rev !mutation_log;
    retries = !retries;
    joins = !joins;
    leaves = !leaves;
    preemptions = !preemptions;
    stale_placement_hits = !stale_placement_hits;
    fairness_violations = !fairness_violations;
    cache = Cache.stats cache;
    makespan_s;
    total_queue_s;
    total_partition_s;
    total_exec_s;
  }

let hit_rate r =
  if r.cache.Cache.lookups = 0 then 0.0
  else float_of_int r.cache.Cache.hits /. float_of_int r.cache.Cache.lookups

let mean_queue_s r =
  match r.records with [] -> 0.0 | l -> r.total_queue_s /. float_of_int (List.length l)

(* --- canonical serialization --- *)

let record_json r =
  Json.Obj
    [
      ("job_id", Json.Int r.job.Job.id);
      ("algorithm", Json.String (Advisor.algorithm_name r.job.Job.algorithm));
      ("dataset", Json.String r.job.Job.dataset);
      ("num_partitions", Json.Int r.job.Job.num_partitions);
      ("arrival_s", Json.Float r.job.Job.arrival_s);
      ("tenant", Json.String r.job.Job.tenant);
      ("strategy", Json.String r.strategy);
      ("cache_hit", Json.Bool r.cache_hit);
      ("outcome", Json.String r.outcome);
      ("attempts", Json.Int r.attempts);
      ("preemptions", Json.Int r.preemptions);
      ("recoveries", Json.Int r.recoveries);
      ("recovery_s", Json.Float r.recovery_s);
      ("speculations", Json.Int r.speculations);
      ("deadline_s", match r.deadline_s with Some d -> Json.Float d | None -> Json.Null);
      ("failed", Json.Bool r.failed);
      ("start_s", Json.Float r.start_s);
      ("queue_s", Json.Float r.queue_s);
      ("partition_s", Json.Float r.partition_s);
      ("exec_s", Json.Float r.exec_s);
      ("finish_s", Json.Float r.finish_s);
    ]

let cache_json (s : Cache.stats) =
  Json.Obj
    [
      ("budget_bytes", Json.Float s.Cache.budget_bytes);
      ("lookups", Json.Int s.Cache.lookups);
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses);
      ("insertions", Json.Int s.Cache.insertions);
      ("evictions", Json.Int s.Cache.evictions);
      ("invalidations", Json.Int s.Cache.invalidations);
      ("rejections", Json.Int s.Cache.rejections);
      ("bytes_inserted", Json.Float s.Cache.bytes_inserted);
      ("bytes_evicted", Json.Float s.Cache.bytes_evicted);
      ("bytes_invalidated", Json.Float s.Cache.bytes_invalidated);
      ("bytes_in_cache", Json.Float s.Cache.bytes_in_cache);
      ("entries", Json.Int s.Cache.entries);
    ]

let params_json r =
  Json.Obj
    [
      ("policy", Json.String (policy_name r.policy));
      ("selection", Json.String (selection_name r.selection));
      ( "threshold",
        match r.selection with Cache_aware t -> Json.Float t | Heuristic | Measured -> Json.Null );
      ("eviction", Json.String (Cache.eviction_name r.eviction));
      ("budget_bytes", Json.Float r.budget_bytes);
      ("slots", Json.Int r.slots);
      ("seed", Json.String (Int64.to_string r.seed));
      ("max_retries", Json.Int r.max_retries);
      ("faults", match r.fault_spec with Some s -> Json.String s | None -> Json.Null);
      ( "checkpoint_every",
        match r.checkpoint_every with Some k -> Json.Int k | None -> Json.Null );
      ("queue_bound", match r.queue_bound with Some b -> Json.Int b | None -> Json.Null);
      ("shed_policy", Json.String (shed_policy_name r.shed_policy));
      ("deadline", match r.deadline with Some d -> Json.String (deadline_name d) | None -> Json.Null);
      ("breaker_k", match r.breaker_k with Some k -> Json.Int k | None -> Json.Null);
      ("breaker_cooldown_s", Json.Float r.breaker_cooldown_s);
      ("backpressure", match r.backpressure with Some w -> Json.Int w | None -> Json.Null);
      ("speculate", Json.Bool (r.speculation <> None));
      ( "speculate_threshold",
        match r.speculation with
        | Some c -> Json.Float c.Speculation.threshold
        | None -> Json.Null );
      ("mutations", match r.mutation_spec with Some s -> Json.String s | None -> Json.Null);
      ("mutate_every", Json.Int r.mutate_every);
      ("mutation_mode", Json.String (mutation_mode_name r.mutation_mode));
      ("mutation_batches", Json.Int (List.length r.mutations));
      ("scale_events", match r.scale_spec with Some s -> Json.String s | None -> Json.Null);
      ( "tenant_weights",
        match r.tenant_weights with
        | [] -> Json.Null
        | ws -> Json.Obj (List.map (fun (tn, w) -> (tn, Json.Float w)) ws) );
      ("tenant_quota", match r.tenant_quota with Some q -> Json.Int q | None -> Json.Null);
      ( "tenant_deadlines",
        match r.tenant_deadlines with
        | [] -> Json.Null
        | ds -> Json.Obj (List.map (fun (tn, d) -> (tn, Json.String (deadline_name d))) ds) );
      ("fairness", Json.Bool r.fairness);
      ("joins", Json.Int r.joins);
      ("leaves", Json.Int r.leaves);
      ("preemptions", Json.Int r.preemptions);
      ("stale_placement_hits", Json.Int r.stale_placement_hits);
      ("fairness_violations", Json.Int r.fairness_violations);
      ("retries", Json.Int r.retries);
      ("failed_jobs", Json.Int (failed_jobs r));
      ("shed_jobs", Json.Int (shed_jobs r));
      ("deadline_jobs", Json.Int (deadline_jobs r));
      ("speculations", Json.Int (total_speculations r));
      ( "breaker_opens",
        Json.Int (List.length (List.filter (fun t -> t.opened) r.breaker_trips)) );
      ( "breaker_closes",
        Json.Int (List.length (List.filter (fun t -> not t.opened) r.breaker_trips)) );
      ("jobs", Json.Int (List.length r.records));
      ("makespan_s", Json.Float r.makespan_s);
      ("total_queue_s", Json.Float r.total_queue_s);
      ("total_partition_s", Json.Float r.total_partition_s);
      ("total_exec_s", Json.Float r.total_exec_s);
      ( "latency",
        match latency_percentiles r with
        | None -> Json.Null
        | Some p ->
            Json.Obj
              [
                ("p50", Json.Float p.Summary.p50);
                ("p95", Json.Float p.Summary.p95);
                ("p99", Json.Float p.Summary.p99);
              ] );
    ]

let mutation_json (m : mutation_record) =
  Json.Obj
    [
      ("batch", Json.Int m.mut_batch);
      ("dataset", Json.String m.mut_dataset);
      ("at_s", Json.Float m.mut_at_s);
      ("inserts", Json.Int m.mut_inserts);
      ("deletes", Json.Int m.mut_deletes);
      ("edges_after", Json.Int m.mut_edges_after);
      ("refresh_s", Json.Float m.mut_refresh_s);
      ("rebuild_s", Json.Float m.mut_rebuild_s);
      ("choice", Json.String m.mut_choice);
      ("dropped_entries", Json.Int m.mut_dropped_entries);
      ("refreshed_entries", Json.Int m.mut_refreshed_entries);
    ]

let failure_json (f : job_failure) =
  Json.Obj
    [
      ("job_id", Json.Int f.job_id);
      ("failed_attempts", Json.Int f.failed_attempts);
      ("reason", Json.String f.reason);
    ]

let breaker_trip_json (t : breaker_trip) =
  Json.Obj
    [
      ("breaker", Json.String (if t.opened then "open" else "close"));
      ("tenant", Json.String t.trip_tenant);
      ("dataset", Json.String t.trip_dataset);
      ("strategy", Json.String t.trip_strategy);
      ("at_s", Json.Float t.trip_at_s);
      ("failures", Json.Int t.trip_failures);
    ]

let report_lines r =
  (Json.to_string (params_json r) :: List.map (fun x -> Json.to_string (record_json x)) r.records)
  @ List.map (fun f -> Json.to_string (failure_json f)) r.failures
  @ List.map (fun t -> Json.to_string (breaker_trip_json t)) r.breaker_trips
  @ List.map (fun m -> Json.to_string (mutation_json m)) r.mutations
  @ [ Json.to_string (cache_json r.cache) ]

let pp_summary ppf r =
  let n = List.length r.records in
  let hits = List.length (List.filter (fun x -> x.cache_hit) r.records) in
  let oom = List.length (List.filter (fun x -> String.equal x.outcome "out-of-memory") r.records) in
  Format.fprintf ppf "@[<v>workload: %d jobs, policy %s, selection %s, %d slot(s)@," n
    (policy_name r.policy) (selection_name r.selection) r.slots;
  Format.fprintf ppf "cache: %s eviction, budget %.1f GB: %d/%d hits, %d evictions, %d rejections@,"
    (Cache.eviction_name r.eviction) (r.budget_bytes /. 1.0e9) hits r.cache.Cache.lookups
    r.cache.Cache.evictions r.cache.Cache.rejections;
  Format.fprintf ppf "makespan %.2f s | queue mean %.2f s | partition %.2f s | exec %.2f s"
    r.makespan_s (mean_queue_s r) r.total_partition_s r.total_exec_s;
  (match latency_percentiles r with
  | None -> ()
  | Some p -> Format.fprintf ppf "@,latency %a" Summary.pp_ptiles p);
  (match r.fault_spec with
  | None -> ()
  | Some spec ->
      let recov = List.fold_left (fun acc x -> acc + x.recoveries) 0 r.records in
      let recov_s = List.fold_left (fun acc x -> acc +. x.recovery_s) 0.0 r.records in
      Format.fprintf ppf "@,faults %S: %d recover(ies) %.2f s | %d retry(ies) | %d invalidation(s)"
        spec recov recov_s r.retries r.cache.Cache.invalidations);
  if r.speculation <> None then
    Format.fprintf ppf "@,speculation: %d clone(s) launched across all runs" (total_speculations r);
  (match (r.queue_bound, shed_jobs r) with
  | None, _ -> ()
  | Some b, shed ->
      Format.fprintf ppf "@,admission: queue bound %d (%s): %d job(s) shed" b
        (shed_policy_name r.shed_policy) shed);
  (match (r.deadline, deadline_jobs r) with
  | None, _ -> ()
  | Some d, missed ->
      Format.fprintf ppf "@,deadlines (%s): %d job(s) cancelled" (deadline_name d) missed);
  (match r.breaker_k with
  | None -> ()
  | Some k ->
      let opens = List.length (List.filter (fun t -> t.opened) r.breaker_trips) in
      let closes = List.length (List.filter (fun t -> not t.opened) r.breaker_trips) in
      Format.fprintf ppf "@,breakers (k=%d, cooldown %.0f s): %d open(s), %d close(s)" k
        r.breaker_cooldown_s opens closes);
  (match r.scale_spec with
  | None -> ()
  | Some spec ->
      Format.fprintf ppf "@,elastic %S: %d join(s), %d leave(s), %d preemption(s)" spec r.joins
        r.leaves r.preemptions);
  if r.fairness || r.tenant_weights <> [] || r.tenant_quota <> None then begin
    let tenants =
      List.sort_uniq String.compare
        (List.map (fun x -> x.job.Job.tenant) r.records)
    in
    let throttled =
      List.length
        (List.filter
           (fun (f : job_failure) ->
             List.exists
               (fun x -> x.job.Job.id = f.job_id && String.equal x.outcome "shed")
               r.records)
           r.failures)
    in
    Format.fprintf ppf "@,tenants: %d, fairness %s, %d violation(s), %d shed at admission"
      (List.length tenants)
      (if r.fairness then "on" else "off")
      r.fairness_violations throttled
  end;
  (match r.mutation_spec with
  | None -> ()
  | Some spec ->
      let refreshes =
        List.length (List.filter (fun m -> String.equal m.mut_choice "refresh") r.mutations)
      in
      let rebuilds = List.length r.mutations - refreshes in
      Format.fprintf ppf
        "@,mutations %S (every %d launches, %s): %d batch(es), %d refresh / %d rebuild" spec
        r.mutate_every (mutation_mode_name r.mutation_mode) (List.length r.mutations) refreshes
        rebuilds);
  if oom > 0 then Format.fprintf ppf "@,%d job(s) ended out-of-memory" oom;
  if failed_jobs r > 0 then Format.fprintf ppf "@,%d job(s) failed permanently" (failed_jobs r);
  Format.fprintf ppf "@]"
