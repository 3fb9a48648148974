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
module Pricer = Cutfit_bsp.Pricer
module Trace = Cutfit_bsp.Trace
module Faults = Cutfit_bsp.Faults
module Speculation = Cutfit_bsp.Speculation
module Spec_error = Cutfit_bsp.Spec_error
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

type breaker_transition = Opened of Event.breaker_open | Closed of Event.breaker_close
type breaker_trip = { tenant : string; dataset : string; transition : breaker_transition }

(* Per-tenant breaker namespaces: one tenant's failures trip only its
   own breakers. Single-tenant streams keep the bare dataset scope, so
   pre-tenancy event streams and digests are byte-identical. *)
let breaker_scope ~tenant ~dataset =
  if String.equal tenant Job.default_tenant then dataset else tenant ^ "/" ^ dataset

type job_record = {
  job : Job.t;
  start : Event.job_start;
  outcome : string;
  attempts : int;
  preemptions : int;
  recoveries : int;
  recovery_s : float;
  speculations : int;
  deadline_s : float option;
  failure : string option;
  partition_s : float;
  exec_s : float;
  finish_s : float;
}

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
  breaker_trips : breaker_trip list;
  mutations : mutation_record list;
  retries : int;
  joins : int;
  leaves : int;
  stale_placement_hits : int;
  fairness_violations : int;
  cache : Cache.stats;
}

let failed x = Option.is_some x.failure
let failed_jobs r = List.length (List.filter failed r.records)

let count_outcome name r =
  List.length (List.filter (fun x -> String.equal x.outcome name) r.records)

let shed_jobs = count_outcome "shed"
let deadline_jobs = count_outcome "deadline"
let total_speculations r = List.fold_left (fun acc x -> acc + x.speculations) 0 r.records
let preemptions r = List.fold_left (fun acc x -> acc + x.preemptions) 0 r.records
let sum_s f r = List.fold_left (fun acc x -> acc +. f x) 0.0 r.records
let makespan_s r = List.fold_left (fun acc x -> Float.max acc x.finish_s) 0.0 r.records
let total_queue_s = sum_s (fun x -> x.start.Event.queue_s)
let total_partition_s = sum_s (fun x -> x.partition_s)
let total_exec_s = sum_s (fun x -> x.exec_s)

let trip_count ~opened r =
  let is_open t = match t.transition with Opened _ -> true | Closed _ -> false in
  List.length (List.filter (fun t -> Bool.equal (is_open t) opened) r.breaker_trips)

(* Job latency = finish - arrival, over the jobs that actually produced
   a result: sheds, deadline cancels and other permanent failures are
   accounted separately (their latency would be an artifact of the
   give-up instant, not of service). *)
let latency_percentiles r =
  match
    List.filter_map
      (fun x -> if failed x then None else Some (x.finish_s -. x.job.Job.arrival_s))
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

(* --- argument validation --- *)

(* Every rejected argument raises [Spec_error.Error] with dsl
   ["workload"] and the argument's name as the item, so a front end maps
   them all to one usage error. *)
let validate ~slots ~budget_bytes ~selection ~checkpoint_every ~max_retries ~queue_bound
    ~deadline ~breaker_k ~breaker_cooldown_s ~backpressure ~mutate_every ~tenant_weights
    ~tenant_quota ~tenant_deadlines =
  let require ok item fmt =
    Printf.ksprintf
      (fun reason -> if not ok then Spec_error.fail ~dsl:"workload" ~item "%s" reason)
      fmt
  in
  let at_least lo item v = require (v >= lo) item "must be >= %d (got %d)" lo v in
  let positive item = function
    | Absolute s -> require (s > 0.0) item "absolute deadline must be > 0 (got %g)" s
    | Factor f -> require (f > 0.0) item "deadline factor must be > 0 (got %g)" f
  in
  at_least 1 "slots" slots;
  require
    (Float.is_finite budget_bytes && budget_bytes >= 0.0)
    "budget_bytes" "must be finite and >= 0 (got %g)" budget_bytes;
  (match selection with
  | Cache_aware th -> require (th >= 0.0) "selection" "cache-aware threshold must be >= 0 (got %g)" th
  | Heuristic | Measured -> ());
  Option.iter (at_least 1 "checkpoint_every") checkpoint_every;
  at_least 0 "max_retries" max_retries;
  Option.iter (at_least 1 "queue_bound") queue_bound;
  Option.iter (positive "deadline") deadline;
  Option.iter (at_least 1 "breaker_k") breaker_k;
  require (breaker_cooldown_s >= 0.0) "breaker_cooldown_s" "must be >= 0 (got %g)" breaker_cooldown_s;
  Option.iter (at_least 0 "backpressure") backpressure;
  at_least 1 "mutate_every" mutate_every;
  List.iter
    (fun (tn, w) ->
      require (String.length tn > 0) "tenant_weights" "empty tenant name";
      require (w > 0.0) "tenant_weights" "weight of %S must be > 0 (got %g)" tn w)
    tenant_weights;
  Option.iter (at_least 1 "tenant_quota") tenant_quota;
  List.iter (fun (_, d) -> positive "tenant_deadlines" d) tenant_deadlines

(* An attempt's admission: the [Job_start] payload an attempt emits and
   its record keeps. The queue time derives from the start instant; a
   job that never ran keeps the strategy ["-"]. *)
let job_start ?(strategy = "-") ?(cache_hit = false) ~start_s (job : Job.t) =
  { Event.job_id = job.Job.id; strategy; cache_hit; start_s; queue_s = start_s -. job.Job.arrival_s }

(* The one job_record builder: the finish instant derives from the start
   instant and the charged partition and execution seconds. *)
let job_record ?(recoveries = 0) ?(recovery_s = 0.0) ?(speculations = 0) ?(partition_s = 0.0)
    ?(exec_s = 0.0) ~outcome ~attempts ~preemptions ~deadline_s ~start (job : Job.t) =
  {
    job;
    start;
    outcome;
    attempts;
    preemptions;
    recoveries;
    recovery_s;
    speculations;
    deadline_s;
    failure = None;
    partition_s;
    exec_s;
    finish_s = start.Event.start_s +. partition_s +. exec_s;
  }

(* --- the slot/membership timeline --- *)

(* Scale events are a static function of simulated time: the spec's
   join/leave items fold into a membership chain from the initial
   [slots], clamped to [1, slots + total joins], and every preempt
   item realizes its victim against the membership at its instant —
   all decided up front, so the simulation stays bit-reproducible.
   A leave is a graceful drain: the departing slot finishes its
   running job and simply never gets another; a join opens a fresh
   slot at the join instant; a preemption kills the job running on
   the victim slot mid-flight (spot reclamation). *)
module Timeline = struct
  type change = { step : int; before : int; after : int }

  type t = {
    slots : int;
    max_slots : int;
    changes : change list;  (** membership changes, in step order *)
    preempts : (int * int * int) list;  (** (step, victim slot, backoff retries) *)
    mutable unfired : change list;
  }

  let create ~slots scale_events =
    let max_slots = slots + Option.fold ~none:0 ~some:Elastic.total_joins scale_events in
    let realize (c : Elastic.config) =
      let sorted =
        List.stable_sort
          (fun a b -> compare (Elastic.item_step a) (Elastic.item_step b))
          c.Elastic.items
      in
      let change ((changes, preempts, live) as acc) step after =
        if after = live then acc else ({ step; before = live; after } :: changes, preempts, after)
      in
      let changes, preempts, _ =
        List.fold_left
          (fun ((changes, preempts, live) as acc) -> function
            | Elastic.Join { step; count } -> change acc step (min max_slots (live + count))
            | Elastic.Leave { step; count } -> change acc step (max 1 (live - count))
            | Elastic.Preempt { step; retries } ->
                (changes, (step, Elastic.victim c ~step ~alive:live, retries) :: preempts, live))
          ([], [], slots) sorted
      in
      (List.rev changes, List.rev preempts)
    in
    let changes, preempts = Option.fold ~none:([], []) ~some:realize scale_events in
    { slots; max_slots; changes; preempts; unfired = changes }

  let live_at t time =
    List.fold_left
      (fun live c -> if float_of_int c.step <= time then c.after else live)
      t.slots t.changes

  (* Earliest instant >= [t0] at which slot [s] is a live executor —
     [None] only for a slot that never (re)joins past [t0]; slot 0 is
     always live (membership is clamped at 1). *)
  let usable_from t s t0 =
    if s < live_at t t0 then Some t0
    else
      List.find_map
        (fun c ->
          if float_of_int c.step > t0 && s < c.after then Some (float_of_int c.step) else None)
        t.changes

  let preempts_for t s =
    List.filter_map
      (fun (step, victim, r) -> if victim = s then Some (float_of_int step, r) else None)
      t.preempts

  (* Apply the membership changes due by [upto], in order: one join or
     leave event each, and [on_leave] right after every shrink. *)
  let advance t ~upto ~emit ~on_leave =
    let fire, keep = List.partition (fun c -> float_of_int c.step <= upto) t.unfired in
    t.unfired <- keep;
    List.iter
      (fun { step; before; after } ->
        if after > before then
          emit (Event.Executor_join { Event.step; count = after - before; executors = after })
        else begin
          emit (Event.Executor_leave { Event.step; count = before - after; executors = after });
          on_leave ~step ~after
        end)
      fire

  (* Membership growth and shrink changes: all of them have fired by the
     end of a run. *)
  let joins t = List.length (List.filter (fun c -> c.after > c.before) t.changes)
  let leaves t = List.length t.changes - joins t
end

(* --- memoized graphs and advisor measurements --- *)

(* Per-dataset graph (and its paper scale) and per (dataset,
   granularity) candidate metrics — jobs sharing a dataset and
   granularity share the measurement whatever their algorithm, as a
   resident advisor service would. *)
module Memo = struct
  type t = {
    graphs : (string, Graph.t * float * Datasets.spec) Hashtbl.t;
    measured : (string, (Strategy.t * Metrics.t) list) Hashtbl.t;
  }

  let graph_of t dataset =
    match Hashtbl.find_opt t.graphs dataset with
    | Some entry -> entry
    | None ->
        let spec = Datasets.find dataset in
        let g = Datasets.generate spec in
        let scale = float_of_int spec.Datasets.paper_edges /. float_of_int (Graph.num_edges g) in
        let entry = (g, scale, spec) in
        Hashtbl.replace t.graphs dataset entry;
        entry

  let ranked_for t (job : Job.t) =
    let key = Printf.sprintf "%s#%d" job.Job.dataset job.Job.num_partitions in
    let measured =
      match Hashtbl.find_opt t.measured key with
      | Some m -> m
      | None ->
          let g, _, _ = graph_of t job.Job.dataset in
          let m = Metrics.of_hash g ~num_partitions:job.Job.num_partitions in
          Hashtbl.replace t.measured key m;
          m
    in
    Advisor.rank job.Job.algorithm measured

  (* A mutation batch advanced [dataset]'s graph: the advisor re-measures
     on the next job that needs a ranking for it. *)
  let advance t dataset entry =
    Hashtbl.replace t.graphs dataset entry;
    let prefix = dataset ^ "#" in
    let stale =
      (* lint: order-independent *)
      Hashtbl.fold
        (fun key _ acc -> if String.starts_with ~prefix key then key :: acc else acc)
        t.measured []
    in
    List.iter (Hashtbl.remove t.measured) stale
end

(* --- the narrated partitioning cache --- *)

(* Every cache state change is narrated as [Cache_op] events. The cache
   also records where each partitioning lives: the membership at the
   instant the entry became available. An entry whose placement
   references a since-departed executor is stale and must never serve a
   hit — a shrink invalidates eagerly, and [stale_hits] recounts the
   law independently on every hit. *)
module Narrated = struct
  type t = {
    cache : Cache.t;
    emit : Event.t -> unit;
    live_at : float -> int;
    placements : (string, int) Hashtbl.t;
    mutable stale_hits : int;
  }

  let create ~eviction ~budget_bytes ~emit ~live_at =
    let cache = Cache.create ~eviction ~budget_bytes () in
    { cache; emit; live_at; placements = Hashtbl.create 16; stale_hits = 0 }

  let op t op (k : Cache.key) ~bytes ~occupancy ~entries ~at_s =
    t.emit
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

  (* One [op] event per dropped entry, in the cache's order, each
     carrying the occupancy left after it: subtracted one entry at a
     time from the stats taken [before] the drop. Returns the final
     (occupancy, entries). *)
  let narrate_drops t op_name ~(before : Cache.stats) ~at_s dropped =
    List.fold_left
      (fun (occ, ents) (k, b) ->
        let occ = occ -. b and ents = ents - 1 in
        op t op_name k ~bytes:b ~occupancy:occ ~entries:ents ~at_s;
        (occ, ents))
      (before.Cache.bytes_in_cache, before.Cache.entries)
      dropped

  (* A counted lookup, narrated as a hit or a miss. *)
  let find t ~at_s ~scale k =
    let cached = Cache.find t.cache ~at_s k in
    (match (cached, Hashtbl.find_opt t.placements (Cache.key_id k)) with
    | Some _, Some placed when placed > t.live_at at_s -> t.stale_hits <- t.stale_hits + 1
    | _ -> ());
    let s = Cache.stats t.cache in
    op t
      (if Option.is_some cached then "hit" else "miss")
      k
      ~bytes:(Option.fold ~none:0.0 ~some:(pgraph_bytes ~scale) cached)
      ~occupancy:s.Cache.bytes_in_cache ~entries:s.Cache.entries ~at_s;
    cached

  (* Insert a freshly built partitioning, then narrate its evictions and
     the insert, or the rejection of an entry that can never fit. *)
  let insert t k ~available_s ~pg ~bytes ~rebuild_s =
    let before = Cache.stats t.cache in
    match Cache.insert t.cache ~available_s k ~pg ~bytes ~rebuild_s with
    | `Inserted evicted ->
        Hashtbl.replace t.placements (Cache.key_id k) (t.live_at available_s);
        let occ, ents = narrate_drops t "evict" ~before ~at_s:available_s evicted in
        op t "insert" k ~bytes ~occupancy:(occ +. bytes) ~entries:(ents + 1) ~at_s:available_s
    | `Rejected ->
        op t "reject" k ~bytes ~occupancy:before.Cache.bytes_in_cache ~entries:before.Cache.entries
          ~at_s:available_s

  (* Drop (and narrate) every entry matching [pred]; returns the drops. *)
  let invalidate t ~at_s pred =
    let before = Cache.stats t.cache in
    let dropped = Cache.invalidate t.cache ~pred in
    List.iter (fun ((k : Cache.key), _) -> Hashtbl.remove t.placements (Cache.key_id k)) dropped;
    ignore (narrate_drops t "invalidate" ~before ~at_s dropped);
    dropped

  (* A shrink to [after] members drops the entries placed on departed
     executors the instant it happens. *)
  let drop_departed t ~step ~after =
    let departed (k : Cache.key) =
      match Hashtbl.find_opt t.placements (Cache.key_id k) with
      | Some placed -> placed > after
      | None -> false
    in
    ignore (invalidate t ~at_s:(float_of_int step) departed)
end

(* --- retries and circuit breakers --- *)

(* Per-job attempt and preemption counts, and one breaker per (tenant
   scope, dataset, strategy): [breaker_k] consecutive aborted / error /
   out-of-memory attempts open it; while open (and inside the cooldown)
   selection routes around the strategy via the degraded cache-aware
   path. Past the cooldown the breaker is half-open: the next job that
   selects the strategy is the probe — a success closes the breaker, a
   failure re-arms the cooldown. *)
module Retry = struct
  type breaker = { mutable fails : int; mutable open_since : float option }

  type t = {
    breaker_k : int option;
    cooldown_s : float;
    emit : Event.t -> unit;
    attempts : (int, int) Hashtbl.t;
    preempts : (int, int) Hashtbl.t;
    breakers : (string, breaker) Hashtbl.t;
    mutable trips : breaker_trip list;
  }

  let create ?breaker_k ~cooldown_s ~emit () =
    let attempts = Hashtbl.create 16 and preempts = Hashtbl.create 16 in
    { breaker_k; cooldown_s; emit; attempts; preempts; breakers = Hashtbl.create 16; trips = [] }

  let attempt_of t (j : Job.t) = Option.value ~default:1 (Hashtbl.find_opt t.attempts j.Job.id)
  let preempts_of t (j : Job.t) = Option.value ~default:0 (Hashtbl.find_opt t.preempts j.Job.id)

  let note_preempt t (j : Job.t) = Hashtbl.replace t.preempts j.Job.id (preempts_of t j + 1)
  let bump t (j : Job.t) ~attempt = Hashtbl.replace t.attempts j.Job.id (attempt + 1)

  (* Requeues performed: a job's entry is one past its last attempt. *)
  let retries t =
    (* lint: order-independent *)
    Hashtbl.fold (fun _ next acc -> acc + next - 1) t.attempts 0

  let key ~tenant ~dataset strategy = breaker_scope ~tenant ~dataset ^ "/" ^ strategy

  let blocks t ~at_s ~tenant ~dataset strategy =
    match t.breaker_k with
    | None -> false
    | Some _ -> (
        match Hashtbl.find_opt t.breakers (key ~tenant ~dataset strategy) with
        | Some { open_since = Some since; _ } -> at_s < since +. t.cooldown_s
        | _ -> false)

  (* Record a breaker transition and narrate it: the event carries the
     tenant scope, the stored trip the tenant and bare dataset beside it. *)
  let trip t ~tenant ~dataset transition =
    t.trips <- { tenant; dataset; transition } :: t.trips;
    t.emit
      (match transition with
      | Opened b -> Event.Breaker_open b
      | Closed b -> Event.Breaker_close b)

  (* Feed one attempt's verdict to its breaker. *)
  let note t ~at_s ~tenant ~dataset ~strategy ok =
    match t.breaker_k with
    | None -> ()
    | Some k ->
        let scope = breaker_scope ~tenant ~dataset in
        let b =
          match Hashtbl.find_opt t.breakers (key ~tenant ~dataset strategy) with
          | Some b -> b
          | None ->
              let b = { fails = 0; open_since = None } in
              Hashtbl.replace t.breakers (key ~tenant ~dataset strategy) b;
              b
        in
        if ok then begin
          b.fails <- 0;
          if b.open_since <> None then begin
            b.open_since <- None;
            trip t ~tenant ~dataset (Closed { Event.dataset = scope; strategy; at_s })
          end
        end
        else begin
          b.fails <- b.fails + 1;
          (* Trip on the k-th consecutive failure; a failed half-open
             probe re-arms the open state (a fresh cooldown). *)
          if b.fails >= k || b.open_since <> None then begin
            b.open_since <- Some at_s;
            trip t ~tenant ~dataset
              (Opened { Event.dataset = scope; strategy; at_s; failures = b.fails })
          end
        end
end

(* --- admission: quotas, the bounded queue, SLO culls, the fair pick --- *)

module Admission = struct
  (* Arrival order, ties to the smaller id. *)
  let earlier (a : Job.t) (b : Job.t) =
    a.Job.arrival_s < b.Job.arrival_s
    || (a.Job.arrival_s = b.Job.arrival_s && a.Job.id < b.Job.id)

  type t = {
    policy : policy;
    fairness : bool;
    tenant_weights : (string * float) list;
    tenant_quota : int option;
    queue_bound : int option;
    shed_policy : shed_policy;
    emit : Event.t -> unit;
    mutable pending : Job.t list;
    busy : (string, float) Hashtbl.t;
    mutable violations : int;
  }

  let create ~policy ~fairness ~tenant_weights ~tenant_quota ~queue_bound ~shed_policy ~emit =
    let busy = Hashtbl.create 8 and pending = [] and violations = 0 in
    { policy; fairness; tenant_weights; tenant_quota; queue_bound; shed_policy; emit; pending; busy;
      violations }

  let depth t = List.length t.pending
  let busy_of t tn = Option.value ~default:0.0 (Hashtbl.find_opt t.busy tn)
  let note_busy t tn s = Hashtbl.replace t.busy tn (busy_of t tn +. s)

  (* Queue a ready job. A first-attempt job over its tenant's quota is
     throttled and shed; one meeting a full queue is shed ([Reject]) or
     displaces the oldest queued job ([Drop_oldest]). Requeued retries
     bypass both — they already held a queue claim when they first ran.
     Returns the shed jobs with their cause and the queue depth. *)
  let admit t ~retry ~ready (j : Job.t) =
    let enqueue () =
      t.pending <- t.pending @ [ j ];
      []
    in
    let mine () =
      List.length (List.filter (fun (x : Job.t) -> String.equal x.Job.tenant j.Job.tenant) t.pending)
    in
    match (t.tenant_quota, t.queue_bound) with
    | _ when retry -> enqueue ()
    | Some q, _ when mine () >= q ->
        t.emit
          (Event.Tenant_throttle
             { Event.tenant = j.Job.tenant; job_id = j.Job.id; at_s = ready; pending = mine () });
        [ (j, `Quota, mine ()) ]
    | _, Some bound when depth t >= bound -> (
        let depth = depth t in
        match t.shed_policy with
        | Reject -> [ (j, `Queue t.shed_policy, depth) ]
        | Drop_oldest ->
            let oldest =
              List.fold_left
                (fun best c -> if earlier c best then c else best)
                (List.hd t.pending) (List.tl t.pending)
            in
            t.pending <- List.filter (fun (x : Job.t) -> x.Job.id <> oldest.Job.id) t.pending;
            ignore (enqueue ());
            [ (oldest, `Queue t.shed_policy, depth) ])
    | _ -> enqueue ()

  (* SLO enforcement in the queue: removes and returns every pending job
     already past its deadline, with that deadline. *)
  let cull t ~at_s ~deadline_of =
    let expired, alive =
      List.partition_map
        (fun (j : Job.t) ->
          match deadline_of j with Some d when at_s >= d -> Either.Left (j, d) | _ -> Either.Right j)
        t.pending
    in
    t.pending <- alive;
    expired

  let pick_base t ~cost = function
    | [] -> None
    | first :: rest ->
        let better (a : Job.t) (b : Job.t) =
          match t.policy with
          | Fifo -> earlier a b
          | Sjf ->
              let ca = cost a and cb = cost b in
              if ca <> cb then ca < cb else a.Job.id < b.Job.id
        in
        Some (List.fold_left (fun best c -> if better c best then c else best) first rest)

  (* Weighted fair sharing (DRF over the single bottleneck resource,
     slot busy-time): serve the pending tenant with the smallest
     weighted service deficit (ties to the smaller name), then let the
     scheduling policy order the jobs within the chosen tenant. Without
     [fairness] the policy ranges over the whole queue — a greedy tenant
     can starve the others. *)
  let pick t ~cost =
    match t.pending with
    | _ :: _ when t.fairness ->
        let weight_of tn = Option.value ~default:1.0 (List.assoc_opt tn t.tenant_weights) in
        let deficit tn = busy_of t tn /. weight_of tn in
        let tenants =
          List.sort_uniq String.compare (List.map (fun (j : Job.t) -> j.Job.tenant) t.pending)
        in
        let chosen =
          List.fold_left
            (fun best tn -> if deficit tn < deficit best then tn else best)
            (List.hd tenants) tenants
        in
        (* Independent recount of the fairness law: no pending tenant
           may hold a strictly smaller weighted deficit than the
           tenant just served. *)
        if List.exists (fun tn -> deficit tn < deficit chosen) tenants then
          t.violations <- t.violations + 1;
        pick_base t ~cost
          (List.filter (fun (j : Job.t) -> String.equal j.Job.tenant chosen) t.pending)
    | _ -> pick_base t ~cost t.pending

  (* Remove and return the job the next free slot serves. *)
  let take t ~cost =
    let picked = pick t ~cost in
    Option.iter
      (fun (job : Job.t) ->
        t.pending <- List.filter (fun (j : Job.t) -> j.Job.id <> job.Job.id) t.pending)
      picked;
    picked
end

(* --- mutation ingest --- *)

(* Streaming ingestion: every [every]-th job launch first lands a
   mutation batch on its own dataset. The memoized graph advances, the
   advisor's measurements for that dataset are forgotten, and the cache
   loses exactly that dataset's keys. The path is [Repartition.decide]'s
   choice over every resident cut of the dataset, unless a forced
   mutation mode overrides it. On the refresh path the
   incremental repair runs synchronously with the batch — the refreshed
   partitionings are valid the instant it completes, and the triggering
   job is delayed by the summed refresh price (the value [launch]
   returns). On the rebuild path nothing is re-inserted: the next job
   on the dataset pays its full partition build on the miss. *)
module Ingest = struct
  type t = {
    mutations : Mutation.config option;
    every : int;
    mode : mutation_mode;
    heuristic : Streaming.t;
    cluster : Cluster.t;
    mutable launches : int;
    mutable log : mutation_record list;
  }

  let create ?mutations ~every ~mode ~heuristic ~cluster () =
    { mutations; every; mode; heuristic; cluster; launches = 0; log = [] }

  let land_batch t ~memo ~cache ~emit ~at_s ~batch ~dataset cfg =
    let g, _, spec = Memo.graph_of memo dataset in
    let delta = Mutation.plan cfg ~batch g in
    if Mutation.is_empty delta then 0.0
    else begin
      let applied = Mutation.apply g delta in
      let new_g = applied.Mutation.graph in
      let new_scale =
        float_of_int spec.Datasets.paper_edges /. float_of_int (Graph.num_edges new_g)
      in
      let on_dataset (k : Cache.key) = String.equal k.Cache.graph dataset in
      (* Every resident entry was built against the memoized pre-delta
         graph (an earlier batch dropped anything older), so its
         refresh is well-defined. *)
      let resident =
        List.map
          (fun ((k : Cache.key), pg) ->
            let refreshed =
              Incremental.refresh t.heuristic ~num_partitions:k.Cache.num_partitions
                ~assignment:(Pgraph.assignment pg) applied
            in
            ( k,
              Repartition.price ~cluster:t.cluster ~scale:new_scale
                ~old_metrics:(Pgraph.metrics pg) applied refreshed ))
          (Cache.peek_entries cache.Narrated.cache ~pred:on_dataset)
      in
      let decided = Repartition.decide applied (List.map snd resident) in
      let d =
        match t.mode with
        | Priced -> decided
        | Force_refresh -> { decided with Repartition.choice = Repartition.Refresh }
        | Force_rebuild -> { decided with Repartition.choice = Repartition.Rebuild }
      in
      let refresh_chosen =
        match d.Repartition.choice with Repartition.Refresh -> true | Repartition.Rebuild -> false
      in
      Memo.advance memo dataset (new_g, new_scale, spec);
      let dropped = Narrated.invalidate cache ~at_s on_dataset in
      if refresh_chosen then
        List.iter
          (fun ((k : Cache.key), (p : Repartition.priced)) ->
            let pg' =
              Pgraph.build new_g ~num_partitions:k.Cache.num_partitions
                p.Repartition.refreshed.Incremental.assignment
            in
            (* The repair is synchronous with the batch: the entry is
               valid the moment the (delayed) triggering job looks it
               up. The refresh price is charged as the returned stream
               delay, not as entry latency. *)
            Narrated.insert cache k ~available_s:at_s ~pg:pg'
              ~bytes:(pgraph_bytes ~scale:new_scale pg')
              ~rebuild_s:p.Repartition.rebuild_s)
          resident;
      List.iter emit (Repartition.events ~graph:dataset ~at_s d);
      t.log <-
        {
          mut_batch = d.Repartition.batch;
          mut_dataset = dataset;
          mut_at_s = at_s;
          mut_inserts = d.Repartition.inserts;
          mut_deletes = d.Repartition.deletes;
          mut_edges_after = d.Repartition.edges_after;
          mut_refresh_s = d.Repartition.refresh_s;
          mut_rebuild_s = d.Repartition.rebuild_s;
          mut_choice = Repartition.choice_name d.Repartition.choice;
          mut_dropped_entries = List.length dropped;
          mut_refreshed_entries = (if refresh_chosen then List.length resident else 0);
        }
        :: t.log;
      if refresh_chosen then d.Repartition.refresh_s else 0.0
    end

  (* Count one job launch; returns the stream delay of the batch it
     triggers, if any. *)
  let launch t ~memo ~cache ~emit ~at_s (job : Job.t) =
    match t.mutations with
    | None -> 0.0
    | Some cfg ->
        t.launches <- t.launches + 1;
        if t.launches mod t.every <> 0 then 0.0
        else
          land_batch t ~memo ~cache ~emit ~at_s ~batch:(t.launches / t.every)
            ~dataset:job.Job.dataset cfg
end

(* --- the event loop --- *)

type state = {
  cluster : Cluster.t;
  seed : int64;
  iterations : int option;
  what_if : Pricer.what_if;  (** base perturbations; each attempt redraws [faults] *)
  selection : selection;
  backpressure : int option;
  deadline : deadline option;
  tenant_deadlines : (string * deadline) list;
  max_retries : int;
  emit : Event.t -> unit;
  timeline : Timeline.t;
  memo : Memo.t;
  cache : Narrated.t;
  retry : Retry.t;
  admission : Admission.t;
  ingest : Ingest.t;
  deadlines : (int, float) Hashtbl.t;  (** memoized per-job SLO instants *)
  slot_free : float array;
  (* [(ready_s, job)] in ready order: a job's own arrival instant, or for
     a requeued job its backed-off resubmit instant. The job itself is
     never altered, so every record and event keeps the original
     arrival. *)
  mutable future : (float * Job.t) list;
  mutable records : job_record list;
}

let cluster_for st (job : Job.t) =
  { st.cluster with Cluster.num_partitions = job.Job.num_partitions }

(* One fault realization per (job, attempt): the schedule's items stay
   exactly as specified, but the seeded draws (random faults, unpinned
   executors) differ per job and per retry — a retried job faces a
   fresh realization of the same fault environment, so a [rand@R]
   schedule can kill one attempt and spare the next. *)
let what_if_for st (job : Job.t) ~attempt =
  let faults =
    Option.map
      (fun (f : Faults.config) ->
        let mixed =
          Splitmix64.mix64
            (Int64.logxor
               (Int64.mul (Int64.of_int (job.Job.id + 1)) 0x9E3779B97F4A7C15L)
               (Int64.add
                  (Int64.of_int f.Faults.seed)
                  (Int64.mul (Int64.of_int attempt) 0xBF58476D1CE4E5B9L)))
        in
        { f with Faults.seed = Int64.to_int mixed land 0x3FFFFFFF })
      st.what_if.faults
  in
  { st.what_if with faults }

(* Structural admission control: a malformed job must produce a failed
   record, never an exception out of the scheduler loop. *)
let invalid_reason (job : Job.t) =
  if job.Job.num_partitions < 1 then
    Some (Printf.sprintf "num_partitions %d < 1" job.Job.num_partitions)
  else
    match Datasets.find job.Job.dataset with
    | _ -> None
    | exception Not_found -> Some (Printf.sprintf "unknown dataset %S" job.Job.dataset)

(* --- strategy selection --- *)

let unblocked st ~at_s (job : Job.t) strategy =
  not
    (Retry.blocks st.retry ~at_s ~tenant:job.Job.tenant ~dataset:job.Job.dataset
       (Strategy.to_string strategy))

(* Whether a ranked strategy already has a live cached partitioning for
   this job's graph and granularity. *)
let cached_for st ~at_s (job : Job.t) =
  let cached =
    Cache.cached_strategies st.cache.Narrated.cache ~at_s ~graph:job.Job.dataset
      ~num_partitions:job.Job.num_partitions
  in
  fun (r : Advisor.ranked) ->
    List.exists (String.equal (Strategy.to_string r.Advisor.strategy)) cached

(* The degraded selection path, used under queue backpressure and when
   the preferred strategy's breaker is open: best-ranked strategy that
   is already cached (zero build cost) and not breaker-blocked, then
   the best non-blocked strategy, then the overall best as a last
   resort (everything blocked — the probe). *)
let degraded_pick st ~at_s (job : Job.t) =
  let ranked = Memo.ranked_for st.memo job in
  let is_cached = cached_for st ~at_s job in
  let ok (r : Advisor.ranked) = unblocked st ~at_s job r.Advisor.strategy in
  match List.find_opt (fun r -> is_cached r && ok r) ranked with
  | Some r -> r.Advisor.strategy
  | None -> (
      match List.find_opt ok ranked with
      | Some r -> r.Advisor.strategy
      | None -> (List.hd ranked).Advisor.strategy)

let choose_strategy ?(depth = 0) st ~at_s (job : Job.t) =
  let preferred =
    match st.selection with
    | Heuristic ->
        let _, _, spec = Memo.graph_of st.memo job.Job.dataset in
        let size = Advisor.classify ~paper_scale_edges:(float_of_int spec.Datasets.paper_edges) in
        Advisor.heuristic job.Job.algorithm ~size ~num_partitions:job.Job.num_partitions
    | Measured -> (List.hd (Memo.ranked_for st.memo job)).Advisor.strategy
    | Cache_aware threshold -> (
        let ranked = Memo.ranked_for st.memo job in
        let best = List.hd ranked in
        match List.find_opt (cached_for st ~at_s job) ranked with
        | Some r
          when (r.Advisor.score -. best.Advisor.score) /. Float.max best.Advisor.score 1.0
               <= threshold ->
            r.Advisor.strategy
        | Some _ | None -> best.Advisor.strategy)
  in
  let overloaded = match st.backpressure with Some w -> depth > w | None -> false in
  if overloaded || not (unblocked st ~at_s job preferred) then degraded_pick st ~at_s job
  else preferred

let cache_key (job : Job.t) strategy =
  {
    Cache.graph = job.Job.dataset;
    strategy = Strategy.to_string strategy;
    num_partitions = job.Job.num_partitions;
  }

let predicted_service st ~at_s (job : Job.t) =
  let g, scale, _ = Memo.graph_of st.memo job.Job.dataset in
  let strategy = choose_strategy st ~at_s job in
  let name = Strategy.to_string strategy in
  let m =
    (List.find
       (fun (r : Advisor.ranked) -> String.equal (Strategy.to_string r.Advisor.strategy) name)
       (Memo.ranked_for st.memo job))
      .Advisor.metrics
  in
  let cl = cluster_for st job in
  let build =
    if Cache.mem st.cache.Narrated.cache ~at_s (cache_key job strategy) then 0.0
    else Advisor.predicted_build_s ~cluster:cl ~scale g m
  in
  build +. Advisor.predicted_exec_s ~cluster:cl ~scale job.Job.algorithm g m

(* Per-job SLO deadline, memoized at first use (admission or SJF
   ranking): an absolute offset from arrival, or the advisor-predicted
   service time times a factor — so a job's SLO scales with what the
   advisor believes the job should cost. The deadline never moves
   across retries: the SLO is a property of the job, not the attempt.
   A tenant-level SLO overrides the global one: premium tenants buy
   tighter (or looser) deadlines without touching anyone else's. *)
let deadline_of st (job : Job.t) =
  let spec =
    match List.assoc_opt job.Job.tenant st.tenant_deadlines with
    | Some d -> Some d
    | None -> st.deadline
  in
  Option.map
    (fun d ->
      match Hashtbl.find_opt st.deadlines job.Job.id with
      | Some v -> v
      | None ->
          let v =
            match d with
            | Absolute s -> job.Job.arrival_s +. s
            | Factor f ->
                job.Job.arrival_s +. (f *. predicted_service st ~at_s:job.Job.arrival_s job)
          in
          Hashtbl.replace st.deadlines job.Job.id v;
          v)
    spec

(* --- one attempt --- *)

let run_algorithm st (job : Job.t) prepared =
  let landmarks =
    lazy
      (let g, _, _ = Memo.graph_of st.memo job.Job.dataset in
       let job_seed =
         Splitmix64.mix64
           (Int64.logxor st.seed (Int64.mul (Int64.of_int (job.Job.id + 1)) 0x9E3779B97F4A7C15L))
       in
       Sssp.pick_landmarks ~seed:job_seed ~count:3 g)
  in
  let (Pipeline.Algo a) = Pipeline.algo ?iterations:st.iterations ~landmarks job.Job.algorithm in
  a.Pipeline.price prepared

let emit_end st r =
  st.emit
    (Event.Job_end
       {
         Event.job_id = r.job.Job.id;
         outcome = r.outcome;
         partition_s = r.partition_s;
         exec_s = r.exec_s;
         finish_s = r.finish_s;
       })

(* Settle an attempt that produced a trace. The trace decomposes into
   the partition cost (load + the step -1 build stage, which the engines
   always record — a cache hit is exactly the run that skips them) and
   execution. The attempt is then cut short at the earliest of a spot
   reclamation of its slot and its SLO deadline, if either lands inside
   it. *)
let conclude st ~(job : Job.t) ~attempt ~(start : Event.job_start) ~dl ~ckey ~scale ~slot_preempts
    (prepared : Pipeline.prepared) trace =
  let start_s = start.Event.start_s and hit = start.Event.cache_hit in
  (* The BSP engines run without a telemetry handle here (the workload
     stream narrates at job granularity), so itemize this attempt's
     speculative clones from the trace it returned. *)
  List.iter (fun s -> List.iter st.emit (Event.speculation_events s)) trace.Trace.speculations;
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
  (* An SLO cancel kills the run at its deadline: the slot frees there,
     the work past the deadline is never paid — but the work up to it
     is, which is the wasted-work accounting. Lost (aborted) runs keep
     their own outcome; the retry gate decides whether the deadline
     still leaves room to requeue. *)
  let overdue = match dl with Some d when (not lost) && natural_finish > d -> Some d | _ -> None in
  (* Spot preemption: the earliest scheduled reclamation of this slot
     that lands strictly inside the attempt's occupancy wins over both
     the natural outcome and a later deadline cancel — the slot is
     simply taken away at that instant. A later attempt on the same
     slot starts past the reclamation, so a preempt item fires at most
     once. *)
  let occupied_until = Option.value overdue ~default:natural_finish in
  let preempt =
    List.fold_left
      (fun acc (pt, r) ->
        if start_s < pt && pt < occupied_until then
          match acc with Some (best, _) when best <= pt -> acc | _ -> Some (pt, r)
        else acc)
      None slot_preempts
  in
  (* A partitioning built by a run whose cluster then died never becomes
     reusable — it was resident on the lost executors. A build that
     would only have finished past the job's deadline cancel (or its
     slot's reclamation) never completed either. *)
  let built_by at = start_s +. partition_cost <= at in
  if
    (not hit) && (not lost)
    && Option.fold ~none:true ~some:built_by dl
    && Option.fold ~none:true ~some:(fun (pt, _) -> built_by pt) preempt
  then
    Narrated.insert st.cache ckey ~available_s:(start_s +. partition_cost)
      ~pg:prepared.Pipeline.pg
      ~bytes:(pgraph_bytes ~scale prepared.Pipeline.pg)
      ~rebuild_s:partition_cost;
  let cut =
    match preempt with
    | Some (pt, _) -> Some ("preempted", pt)
    | None -> Option.map (fun d -> ("deadline", d)) overdue
  in
  let record ~outcome ~partition_s ~exec_s =
    job_record ~recoveries:(Trace.num_recoveries trace) ~recovery_s:(Trace.recovery_s trace)
      ~speculations:(Trace.num_speculations trace) ~partition_s ~exec_s ~outcome ~attempts:attempt
      ~preemptions:(Retry.preempts_of st.retry job) ~deadline_s:dl ~start job
  in
  let record =
    match cut with
    | Some (outcome, at) ->
        let run_s = at -. start_s in
        let partition_s = Float.min partition_s run_s in
        record ~outcome ~partition_s ~exec_s:(run_s -. partition_s)
    | None -> record ~outcome:(Trace.outcome_name trace.Trace.outcome) ~partition_s ~exec_s:exec_total
  in
  emit_end st record;
  match (preempt, overdue) with
  | Some (pt, r), _ ->
      st.emit
        (Event.Fault_injected
           {
             Event.step = int_of_float pt;
             kind = "preempt";
             executor = -1;
             detail =
               Printf.sprintf "slot reclaimed under job %d (attempt %d, backoff r%d)" job.Job.id
                 attempt r;
           });
      (record, `Preempted r)
  | None, Some d ->
      st.emit
        (Event.Deadline_exceeded
           {
             Event.job_id = job.Job.id;
             deadline_s = d;
             overshoot_s = natural_finish -. d;
             started = true;
           });
      (record, `Deadline (natural_finish -. d))
  | None, None -> (record, if lost then `Lost else `Ok)

(* One attempt of one job. Returns the attempt's record plus its
   structural status: [`Ok] (recorded as-is), [`Lost] (the cluster died
   past the run's crash budget — candidate for requeueing),
   [`Preempted] (the slot was reclaimed mid-run — requeued without
   consuming the retry budget), [`Deadline] (cancelled at its SLO) or
   [`Error reason] (an exception from the pipeline, converted into a
   failed record so nothing escapes the scheduler loop). *)
let execute st ~start_s ~attempt ~slot_preempts ~depth (job : Job.t) =
  let g, scale, _ = Memo.graph_of st.memo job.Job.dataset in
  let dl = deadline_of st job in
  let strategy = choose_strategy ~depth st ~at_s:start_s job in
  let ckey = cache_key job strategy in
  let cached = Narrated.find st.cache ~at_s:start_s ~scale ckey in
  let what_if = what_if_for st job ~attempt in
  (* Trace reuse. A run is a pure function of its partitioning, its
     algorithm and settings fixed for the whole engine run (iterations,
     the cluster at the entry's partition count, the base what-if, and
     the dataset's scale, which moves only with a mutation batch, and a
     batch drops or replaces every entry of its dataset); no telemetry
     is passed in. So a trace stored on a cache entry stands for every
     later run of its algorithm there, except SSSP, whose landmarks are
     drawn per job, and an attempt with a fault schedule, which is
     reseeded per job and attempt. *)
  let reuse =
    match (job.Job.algorithm, what_if.Pricer.faults) with
    | Advisor.Shortest_paths, _ | _, Some _ -> None
    | algorithm, None -> Some (Advisor.algorithm_name algorithm)
  in
  let stored =
    match (cached, reuse) with
    | Some pg, Some algorithm -> Cache.find_trace st.cache.Narrated.cache ckey ~pg algorithm
    | _ -> None
  in
  let cluster = cluster_for st job and partitioner = Partitioner.Hash strategy in
  let prepared =
    match cached with
    | Some pg -> Pipeline.of_pgraph ~cluster ~scale ~what_if ~partitioner pg
    | None -> Pipeline.prepare ~cluster ~partitioner ~scale ~what_if ~algorithm:job.Job.algorithm g
  in
  let start =
    job_start ~strategy:ckey.Cache.strategy ~cache_hit:(Option.is_some cached) ~start_s job
  in
  st.emit (Event.Job_start start);
  let run () = match stored with Some trace -> trace | None -> run_algorithm st job prepared in
  match run () with
  | exception (Invalid_argument reason | Failure reason) ->
      let record =
        job_record ~outcome:"error" ~attempts:attempt
          ~preemptions:(Retry.preempts_of st.retry job) ~deadline_s:dl ~start job
      in
      emit_end st record;
      (record, `Error reason)
  | trace ->
      let settled = conclude st ~job ~attempt ~start ~dl ~ckey ~scale ~slot_preempts prepared trace in
      (* Kept only if the entry now holds this very partitioning: a miss
         whose build was never inserted leaves nothing behind. *)
      (match (stored, reuse) with
      | None, Some algorithm ->
          Cache.store_trace st.cache.Narrated.cache ckey ~pg:prepared.Pipeline.pg algorithm trace
      | _ -> ());
      settled

(* --- records, sheds, culls and the requeue --- *)

let fail st record reason = st.records <- { record with failure = Some reason } :: st.records

(* A job that did not run: a zero-cost record pinned at [at_s]. Sheds
   and deadline culls never consume a retry attempt and never touch the
   cache. *)
let unrun_record st ~outcome ~at_s ~deadline_s (j : Job.t) =
  job_record ~outcome ~attempts:(max 0 (Retry.attempt_of st.retry j - 1))
    ~preemptions:(Retry.preempts_of st.retry j) ~deadline_s ~start:(job_start ~start_s:at_s j) j

(* A job the admission queue refused. *)
let shed st ~at_s ((j : Job.t), why, depth) =
  fail st
    (unrun_record st ~outcome:"shed" ~at_s ~deadline_s:(Hashtbl.find_opt st.deadlines j.Job.id) j)
    (match why with
    | `Queue p ->
        Printf.sprintf "shed by admission control (%s, queue depth %d)" (shed_policy_name p) depth
    | `Quota ->
        Printf.sprintf "shed by the tenant quota (%s already has %d job(s) queued)" j.Job.tenant
          depth);
  let policy = match why with `Queue p -> shed_policy_name p | `Quota -> "quota" in
  st.emit (Event.Job_shed { Event.job_id = j.Job.id; at_s; queue_depth = depth; policy })

(* A queue-style deadline cancel: a failed record pinned at the deadline
   instant [d], no slot time, no retry consumed. Shared by the queue
   cull and the late-start cancel (a mutation batch holding the slot
   past the launching job's own deadline). *)
let deadline_cull st ~at_s ((j : Job.t), d) =
  fail st
    (unrun_record st ~outcome:"deadline" ~at_s:d ~deadline_s:(Some d) j)
    (Printf.sprintf "missed its SLO deadline (%.2f s) in the queue" d);
  st.emit
    (Event.Deadline_exceeded
       { Event.job_id = j.Job.id; deadline_s = d; overshoot_s = at_s -. d; started = false })

let by_ready (ra, (a : Job.t)) (rb, (b : Job.t)) =
  if ra <> rb then Float.compare ra rb else compare a.Job.id b.Job.id

let rec insert_future entry = function
  | [] -> [ entry ]
  | e :: rest -> if by_ready entry e < 0 then entry :: e :: rest else e :: insert_future entry rest

(* Requeue an attempt that was preempted or lost its cluster, after a
   backoff of [backoff] steps. The requeue is pointless when the
   resubmission would already land past the job's SLO deadline (or, for
   a lost cluster, the retry budget is spent): the job then fails here
   and now. *)
let requeue st (job : Job.t) ~attempt ~record ~backoff ~budget_left ~cause ~verb =
  let delay_s = retry_delay_s ~attempt:backoff in
  let resubmit_s = record.finish_s +. delay_s in
  let deadline_allows =
    match deadline_of st job with Some d -> resubmit_s < d | None -> true
  in
  if budget_left && deadline_allows then begin
    st.emit (Event.Job_retry { Event.job_id = job.Job.id; attempt; delay_s; resubmit_s });
    Retry.bump st.retry job ~attempt;
    st.future <- insert_future (resubmit_s, job) st.future
  end
  else
    (* A preempted record was built before its preemption was counted;
       refresh it so the conservation law (summed record preemptions =
       the report counter) holds. *)
    fail st
      { record with preemptions = Retry.preempts_of st.retry job }
      (if deadline_allows then
         Printf.sprintf "cluster lost beyond the retry budget (%d attempt(s))" attempt
       else
         Printf.sprintf "%s and the SLO deadline leaves no time to %s (%d attempt(s))" cause verb
           attempt)

(* File an attempt's outcome. The breaker judges its real verdict:
   aborted, error and out-of-memory count against the (tenant, dataset,
   strategy) triple; deadline cancels and preemptions are environment,
   not a strategy failure, and carry no verdict. *)
let settle st ~slot (job : Job.t) ~attempt (record, status) =
  st.slot_free.(slot) <- record.finish_s;
  Admission.note_busy st.admission job.Job.tenant (record.partition_s +. record.exec_s);
  let verdict ok =
    Retry.note st.retry ~at_s:record.finish_s ~tenant:job.Job.tenant ~dataset:job.Job.dataset
      ~strategy:record.start.Event.strategy ok
  in
  match status with
  | `Ok ->
      verdict (not (String.equal record.outcome "out-of-memory"));
      st.records <- record :: st.records
  | `Error reason ->
      verdict false;
      fail st record reason
  | `Deadline overshoot ->
      fail st record (Printf.sprintf "cancelled at its SLO deadline (ran %.2f s over)" overshoot)
  | `Preempted r ->
      (* Spot reclamation is an involuntary failure: the job requeues
         with a fresh attempt but its retry budget untouched. *)
      Retry.note_preempt st.retry job;
      requeue st job ~attempt ~record ~backoff:(max 1 r) ~budget_left:true ~cause:"preempted"
        ~verb:"resubmit"
  | `Lost ->
      verdict false;
      (* The job's cluster died past its crash budget: every cached
         partitioning was resident on it, so the whole cache is
         invalidated before anything else runs. Preempted attempts were
         involuntary: only the voluntary ones count against the retry
         budget. *)
      ignore (Narrated.invalidate st.cache ~at_s:record.finish_s (fun _ -> true));
      requeue st job ~attempt ~record ~backoff:attempt
        ~budget_left:(attempt - Retry.preempts_of st.retry job <= st.max_retries)
        ~cause:"cluster lost" ~verb:"retry"

let advance_membership st ~upto =
  Timeline.advance st.timeline ~upto ~emit:st.emit ~on_leave:(Narrated.drop_departed st.cache)

(* Launch [job] on [slot] at [at_s]: land the mutation batch the launch
   triggers, apply the membership changes due by the delayed start,
   then run the attempt — unless the batch held the slot past the job's
   own SLO deadline, in which case the run never starts and the job is
   cancelled cull-style while the mutation work keeps the slot busy. *)
let launch st ~slot ~at_s (job : Job.t) =
  let delay_s =
    Ingest.launch st.ingest ~memo:st.memo ~cache:st.cache ~emit:st.emit ~at_s job
  in
  let start_s = at_s +. delay_s in
  advance_membership st ~upto:start_s;
  match deadline_of st job with
  | Some d when start_s >= d ->
      deadline_cull st ~at_s:start_s (job, d);
      st.slot_free.(slot) <- start_s
  | _ ->
      let attempt = Retry.attempt_of st.retry job in
      execute st ~start_s ~attempt
        ~slot_preempts:(Timeline.preempts_for st.timeline slot)
        ~depth:(Admission.depth st.admission) job
      |> settle st ~slot job ~attempt

(* One turn of the event loop. The next launch goes to the slot that can
   usably run soonest: free time for a live slot, the (re)join instant
   for one that is not yet (or no longer) a member. Slot 0 is always
   live, so the scan always finds a candidate. With an empty queue the
   slot idles until the next ready job. *)
let step st =
  let usable s = Timeline.usable_from st.timeline s st.slot_free.(s) in
  let slot = ref 0 in
  let best = ref (Option.value (usable 0) ~default:0.0) in
  for s = 1 to Array.length st.slot_free - 1 do
    match usable s with
    | Some t when t < !best ->
        slot := s;
        best := t
    | Some _ | None -> ()
  done;
  let t =
    match st.future with
    | (ready, _) :: _ when Admission.depth st.admission = 0 -> Float.max !best ready
    | _ -> !best
  in
  (* An idle jump may carry the chosen slot past a leave that retires
     it; re-anchor on its next usable instant. *)
  let t = Option.value (Timeline.usable_from st.timeline !slot t) ~default:t in
  let arrived, rest = List.partition (fun (ready, _) -> ready <= t) st.future in
  st.future <- rest;
  List.iter
    (fun (ready, (j : Job.t)) ->
      let retry = Retry.attempt_of st.retry j > 1 in
      List.iter (shed st ~at_s:ready) (Admission.admit st.admission ~retry ~ready j))
    arrived;
  List.iter (deadline_cull st ~at_s:t)
    (Admission.cull st.admission ~at_s:t ~deadline_of:(deadline_of st));
  match Admission.take st.admission ~cost:(predicted_service st ~at_s:t) with
  | None -> advance_membership st ~upto:t
  | Some job -> launch st ~slot:!slot ~at_s:t job

let run ?(cluster = Cluster.config_i) ?(slots = 2) ?(eviction = Cache.Lru)
    ?(budget_bytes = 8.0e9) ?iterations ?checkpoint_every ?faults ?speculation ?(max_retries = 2)
    ?queue_bound ?(shed_policy = Reject) ?deadline ?breaker_k ?(breaker_cooldown_s = 60.0)
    ?backpressure ?telemetry ?(policy = Fifo) ?(selection = Cache_aware 0.25) ?mutations
    ?(mutate_every = 8) ?(mutation_mode = Priced) ?(mutation_heuristic = Streaming.Greedy)
    ?scale_events ?(tenant_weights = []) ?tenant_quota ?(tenant_deadlines = [])
    ?(fairness = false) ~seed jobs =
  validate ~slots ~budget_bytes ~selection ~checkpoint_every ~max_retries ~queue_bound ~deadline
    ~breaker_k ~breaker_cooldown_s ~backpressure ~mutate_every ~tenant_weights ~tenant_quota
    ~tenant_deadlines;
  let emit e = match telemetry with None -> () | Some t -> Telemetry.emit t e in
  let timeline = Timeline.create ~slots scale_events in
  let st =
    {
      cluster; seed; iterations;
      what_if = { Pricer.static with checkpoint_every; faults; speculation };
      selection; backpressure;
      deadline; tenant_deadlines; max_retries; emit; timeline;
      memo = { Memo.graphs = Hashtbl.create 16; measured = Hashtbl.create 16 };
      cache = Narrated.create ~eviction ~budget_bytes ~emit ~live_at:(Timeline.live_at timeline);
      retry = Retry.create ?breaker_k ~cooldown_s:breaker_cooldown_s ~emit ();
      admission =
        Admission.create ~policy ~fairness ~tenant_weights ~tenant_quota ~queue_bound ~shed_policy
          ~emit;
      ingest =
        Ingest.create ?mutations ~every:mutate_every ~mode:mutation_mode
          ~heuristic:mutation_heuristic ~cluster ();
      deadlines = Hashtbl.create 16;
      slot_free = Array.make timeline.Timeline.max_slots 0.0;
      future = [];
      records = [];
    }
  in
  let sorted =
    List.sort (fun (a : Job.t) b -> by_ready (a.Job.arrival_s, a) (b.Job.arrival_s, b)) jobs
  in
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
  (* Malformed jobs fail structurally at admission: a zero-attempt
     failed record, no slot time, no cache traffic. *)
  st.future <-
    List.filter_map
      (fun (j : Job.t) ->
        match invalid_reason j with
        | None -> Some (j.Job.arrival_s, j)
        | Some reason ->
            fail st
              (job_record ~outcome:"invalid" ~attempts:0 ~preemptions:0 ~deadline_s:None
                 ~start:(job_start ~start_s:j.Job.arrival_s j) j)
              reason;
            None)
      sorted;
  while match st.future with _ :: _ -> true | [] -> Admission.depth st.admission > 0 do
    step st
  done;
  (* Flush scale events past the last launch so the event stream and the
     report agree on the whole spec. *)
  advance_membership st ~upto:infinity;
  {
    policy;
    selection;
    eviction;
    budget_bytes;
    slots;
    seed;
    max_retries;
    fault_spec = Option.map (fun (f : Faults.config) -> Faults.to_spec f.Faults.items) faults;
    checkpoint_every;
    queue_bound;
    shed_policy;
    deadline;
    breaker_k;
    breaker_cooldown_s;
    backpressure;
    speculation;
    mutation_spec =
      Option.map (fun (c : Mutation.config) -> Mutation.to_spec c.Mutation.items) mutations;
    mutate_every;
    mutation_mode;
    scale_spec =
      Option.map (fun (c : Elastic.config) -> Elastic.to_spec c.Elastic.items) scale_events;
    tenant_weights;
    tenant_quota;
    tenant_deadlines;
    fairness;
    records = List.sort (fun a b -> compare a.job.Job.id b.job.Job.id) st.records;
    breaker_trips = List.rev st.retry.Retry.trips;
    mutations = List.rev st.ingest.Ingest.log;
    retries = Retry.retries st.retry;
    joins = Timeline.joins timeline;
    leaves = Timeline.leaves timeline;
    stale_placement_hits = st.cache.Narrated.stale_hits;
    fairness_violations = st.admission.Admission.violations;
    cache = Cache.stats st.cache.Narrated.cache;
  }

let hit_rate (r : report) =
  if r.cache.Cache.lookups = 0 then 0.0
  else float_of_int r.cache.Cache.hits /. float_of_int r.cache.Cache.lookups

let mean_queue_s (r : report) =
  match r.records with [] -> 0.0 | l -> total_queue_s r /. float_of_int (List.length l)

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
      ("strategy", Json.String r.start.Event.strategy);
      ("cache_hit", Json.Bool r.start.Event.cache_hit);
      ("outcome", Json.String r.outcome);
      ("attempts", Json.Int r.attempts);
      ("preemptions", Json.Int r.preemptions);
      ("recoveries", Json.Int r.recoveries);
      ("recovery_s", Json.Float r.recovery_s);
      ("speculations", Json.Int r.speculations);
      ("deadline_s", match r.deadline_s with Some d -> Json.Float d | None -> Json.Null);
      ("failed", Json.Bool (failed r));
      ("start_s", Json.Float r.start.Event.start_s);
      ("queue_s", Json.Float r.start.Event.queue_s);
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
      ("preemptions", Json.Int (preemptions r));
      ("stale_placement_hits", Json.Int r.stale_placement_hits);
      ("fairness_violations", Json.Int r.fairness_violations);
      ("retries", Json.Int r.retries);
      ("failed_jobs", Json.Int (failed_jobs r));
      ("shed_jobs", Json.Int (shed_jobs r));
      ("deadline_jobs", Json.Int (deadline_jobs r));
      ("speculations", Json.Int (total_speculations r));
      ("breaker_opens", Json.Int (trip_count ~opened:true r));
      ("breaker_closes", Json.Int (trip_count ~opened:false r));
      ("jobs", Json.Int (List.length r.records));
      ("makespan_s", Json.Float (makespan_s r));
      ("total_queue_s", Json.Float (total_queue_s r));
      ("total_partition_s", Json.Float (total_partition_s r));
      ("total_exec_s", Json.Float (total_exec_s r));
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

(* One line per failed record, in job-id order. *)
let failure_json x =
  Option.map
    (fun reason ->
      Json.Obj
        [
          ("job_id", Json.Int x.job.Job.id);
          ("failed_attempts", Json.Int x.attempts);
          ("reason", Json.String reason);
        ])
    x.failure

let breaker_trip_json (t : breaker_trip) =
  let breaker, strategy, at_s, failures =
    match t.transition with
    | Opened b -> ("open", b.Event.strategy, b.Event.at_s, b.Event.failures)
    | Closed b -> ("close", b.Event.strategy, b.Event.at_s, 0)
  in
  Json.Obj
    [
      ("breaker", Json.String breaker);
      ("tenant", Json.String t.tenant);
      ("dataset", Json.String t.dataset);
      ("strategy", Json.String strategy);
      ("at_s", Json.Float at_s);
      ("failures", Json.Int failures);
    ]

let report_lines (r : report) =
  (Json.to_string (params_json r) :: List.map (fun x -> Json.to_string (record_json x)) r.records)
  @ List.filter_map (fun x -> Option.map Json.to_string (failure_json x)) r.records
  @ List.map (fun t -> Json.to_string (breaker_trip_json t)) r.breaker_trips
  @ List.map (fun m -> Json.to_string (mutation_json m)) r.mutations
  @ [ Json.to_string (cache_json r.cache) ]

let pp_summary ppf (r : report) =
  let n = List.length r.records in
  let hits = List.length (List.filter (fun x -> x.start.Event.cache_hit) r.records) in
  let oom = count_outcome "out-of-memory" r in
  Format.fprintf ppf "@[<v>workload: %d jobs, policy %s, selection %s, %d slot(s)@," n
    (policy_name r.policy) (selection_name r.selection) r.slots;
  Format.fprintf ppf "cache: %s eviction, budget %.1f GB: %d/%d hits, %d evictions, %d rejections@,"
    (Cache.eviction_name r.eviction) (r.budget_bytes /. 1.0e9) hits r.cache.Cache.lookups
    r.cache.Cache.evictions r.cache.Cache.rejections;
  Format.fprintf ppf "makespan %.2f s | queue mean %.2f s | partition %.2f s | exec %.2f s"
    (makespan_s r) (mean_queue_s r) (total_partition_s r) (total_exec_s r);
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
      Format.fprintf ppf "@,breakers (k=%d, cooldown %.0f s): %d open(s), %d close(s)" k
        r.breaker_cooldown_s (trip_count ~opened:true r) (trip_count ~opened:false r));
  (match r.scale_spec with
  | None -> ()
  | Some spec ->
      Format.fprintf ppf "@,elastic %S: %d join(s), %d leave(s), %d preemption(s)" spec r.joins
        r.leaves (preemptions r));
  if r.fairness || r.tenant_weights <> [] || r.tenant_quota <> None then begin
    let tenants =
      List.sort_uniq String.compare
        (List.map (fun x -> x.job.Job.tenant) r.records)
    in
    Format.fprintf ppf "@,tenants: %d, fairness %s, %d violation(s), %d shed at admission"
      (List.length tenants)
      (if r.fairness then "on" else "off")
      r.fairness_violations (shed_jobs r)
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
