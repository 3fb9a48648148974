(* Workload engine: job streams, the partitioning cache, the scheduler,
   and the workload sanitizer. *)

module Advisor = Cutfit.Advisor
module Strategy = Cutfit.Strategy
module Partitioner = Cutfit.Partitioner
module Pgraph = Cutfit_bsp.Pgraph
module Job = Cutfit_workload.Job
module Cache = Cutfit_workload.Cache
module Engine = Cutfit_workload.Engine
module Workload_check = Cutfit_workload.Workload_check

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Any frozen pgraph serves as a cache payload. *)
let payload =
  let g = Test_util.random_graph ~seed:7L ~n:50 ~m:200 in
  let assignment = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:4 g in
  Pgraph.build g ~num_partitions:4 assignment

let key graph strategy = { Cache.graph; strategy; num_partitions = 128 }

let insert ?(available_s = 0.0) ?(rebuild_s = 1.0) cache k ~bytes =
  Cache.insert cache ~available_s k ~pg:payload ~bytes ~rebuild_s

(* The cache laws' verdicts on [s], through the report sanitizer: an
   empty stream's report carrying [s] as its cache statistics. Only the
   cache laws' rules start with "cache-". *)
let cache_rules (s : Cache.stats) =
  let r = { (Engine.run ~seed:1L []) with Engine.cache = s } in
  List.filter
    (fun rule -> String.starts_with ~prefix:"cache-" rule)
    (List.map (fun v -> v.Cutfit_check.Violation.rule) (Workload_check.report r))

(* --- job streams --- *)

let mix = Option.get (Job.find_mix "uniform")

let test_generate_deterministic () =
  let a = Job.generate ~seed:99L ~jobs:50 mix in
  let b = Job.generate ~seed:99L ~jobs:50 mix in
  checkb "same stream" true (a = b);
  let c = Job.generate ~seed:100L ~jobs:50 mix in
  checkb "different seed differs" true (a <> c)

let test_generate_shape () =
  let jobs = Job.generate ~seed:5L ~jobs:80 mix in
  checki "count" 80 (List.length jobs);
  let ok_dims =
    List.for_all
      (fun (j : Job.t) ->
        List.mem_assoc j.Job.dataset mix.Job.datasets
        && List.mem_assoc j.Job.num_partitions mix.Job.partition_counts)
      jobs
  in
  checkb "every job drawn from the mix dimensions" true ok_dims;
  let rec monotone = function
    | (a : Job.t) :: (b : Job.t) :: rest -> a.Job.arrival_s <= b.Job.arrival_s && monotone (b :: rest)
    | _ -> true
  in
  checkb "arrivals non-decreasing" true (monotone jobs);
  checkb "ids sequential" true (List.mapi (fun i _ -> i) jobs = List.map (fun (j : Job.t) -> j.Job.id) jobs)

let test_generate_validation () =
  let bad = { mix with Job.datasets = [ ("no-such-graph", 1.0) ] } in
  Alcotest.check_raises "unknown dataset"
    (Invalid_argument "Job.generate: unknown dataset \"no-such-graph\"") (fun () ->
      ignore (Job.generate ~seed:1L ~jobs:1 bad));
  Alcotest.check_raises "negative count" (Invalid_argument "Job.generate: negative job count")
    (fun () -> ignore (Job.generate ~seed:1L ~jobs:(-1) mix))

(* --- cache mechanics --- *)

let test_cache_hit_miss_evict () =
  let c = Cache.create ~budget_bytes:100.0 () in
  checkb "k1 inserted" true (insert c (key "g" "RVC") ~bytes:40.0 = `Inserted []);
  checkb "k2 inserted" true (insert c (key "g" "1D") ~bytes:40.0 = `Inserted []);
  (match insert c (key "g" "2D") ~bytes:40.0 with
  | `Inserted [ (k, b) ] ->
      Alcotest.(check string) "LRU victim is the oldest" "g/RVC/128" (Cache.key_id k);
      Alcotest.(check (float 0.0)) "evicted bytes" 40.0 b
  | _ -> Alcotest.fail "expected exactly one eviction");
  checkb "evicted key misses" true (Cache.find c ~at_s:0.0 (key "g" "RVC") = None);
  checkb "live key hits" true (Cache.find c ~at_s:0.0 (key "g" "1D") <> None);
  checkb "new key hits" true (Cache.find c ~at_s:0.0 (key "g" "2D") <> None);
  let s = Cache.stats c in
  checki "lookups" 3 s.Cache.lookups;
  checki "hits" 2 s.Cache.hits;
  checki "misses" 1 s.Cache.misses;
  checki "insertions" 3 s.Cache.insertions;
  checki "evictions" 1 s.Cache.evictions;
  checki "entries" 2 s.Cache.entries;
  Alcotest.(check (float 0.0)) "bytes in cache" 80.0 s.Cache.bytes_in_cache;
  checkb "accounting clean" true (cache_rules s = [])

let test_cache_lru_recency () =
  let c = Cache.create ~budget_bytes:100.0 () in
  ignore (insert c (key "g" "RVC") ~bytes:40.0);
  ignore (insert c (key "g" "1D") ~bytes:40.0);
  ignore (Cache.find c ~at_s:0.0 (key "g" "RVC"));
  (* RVC is now fresher than 1D, so 1D is the victim. *)
  match insert c (key "g" "2D") ~bytes:40.0 with
  | `Inserted [ (k, _) ] -> Alcotest.(check string) "victim" "g/1D/128" (Cache.key_id k)
  | _ -> Alcotest.fail "expected exactly one eviction"

let test_cache_cost_aware () =
  let c = Cache.create ~eviction:Cache.Cost_aware ~budget_bytes:100.0 () in
  ignore (insert c (key "g" "RVC") ~bytes:40.0 ~rebuild_s:0.5);
  ignore (insert c (key "g" "1D") ~bytes:40.0 ~rebuild_s:5.0);
  (* RVC is the cheapest to rebuild per byte, so it goes first even
     though 1D is older by recency-free tie-break standards. *)
  match insert c (key "g" "2D") ~bytes:40.0 ~rebuild_s:1.0 with
  | `Inserted [ (k, _) ] -> Alcotest.(check string) "victim" "g/RVC/128" (Cache.key_id k)
  | _ -> Alcotest.fail "expected exactly one eviction"

let test_cache_availability () =
  let c = Cache.create ~budget_bytes:100.0 () in
  ignore (insert c ~available_s:10.0 (key "g" "RVC") ~bytes:40.0);
  checkb "invisible before its build completes" false (Cache.mem c ~at_s:5.0 (key "g" "RVC"));
  checkb "visible at completion" true (Cache.mem c ~at_s:10.0 (key "g" "RVC"));
  checkb "early lookup misses" true (Cache.find c ~at_s:5.0 (key "g" "RVC") = None);
  let s = Cache.stats c in
  checki "miss counted" 1 s.Cache.misses

let test_cache_reject_and_disabled () =
  let c = Cache.create ~budget_bytes:100.0 () in
  checkb "oversized entry rejected" true (insert c (key "g" "RVC") ~bytes:200.0 = `Rejected);
  checki "nothing evicted for it" 0 (Cache.stats c).Cache.evictions;
  checki "rejection counted" 1 (Cache.stats c).Cache.rejections;
  let off = Cache.create ~budget_bytes:0.0 () in
  checkb "disabled cache rejects everything" true (insert off (key "g" "RVC") ~bytes:1.0 = `Rejected);
  checkb "disabled cache always misses" true (Cache.find off ~at_s:0.0 (key "g" "RVC") = None)

let test_cache_reinsert_replaces () =
  let c = Cache.create ~budget_bytes:100.0 () in
  ignore (insert c (key "g" "RVC") ~bytes:40.0);
  (match insert c (key "g" "RVC") ~bytes:60.0 with
  | `Inserted [ (k, b) ] ->
      Alcotest.(check string) "old entry evicted" "g/RVC/128" (Cache.key_id k);
      Alcotest.(check (float 0.0)) "old bytes" 40.0 b
  | _ -> Alcotest.fail "expected the stale entry to be evicted");
  let s = Cache.stats c in
  checki "one live entry" 1 s.Cache.entries;
  Alcotest.(check (float 0.0)) "new size" 60.0 s.Cache.bytes_in_cache;
  checkb "accounting clean" true (cache_rules s = [])

(* Same insert sequence, same eviction order — twice, from scratch. *)
let test_cache_eviction_order_deterministic () =
  let scenario () =
    let c = Cache.create ~budget_bytes:250.0 () in
    let evicted = ref [] in
    List.iteri
      (fun i name ->
        match insert c (key "g" name) ~bytes:(40.0 +. float_of_int i) ~rebuild_s:(float_of_int i) with
        | `Inserted evs -> evicted := !evicted @ List.map (fun (k, _) -> Cache.key_id k) evs
        | `Rejected -> ())
      [ "RVC"; "1D"; "2D"; "CRVC"; "SC"; "DC"; "DBH"; "Greedy" ];
    !evicted
  in
  let a = scenario () and b = scenario () in
  checkb "some evictions happened" true (List.length a > 0);
  checkb "identical order" true (a = b)

let test_cache_accounting_fabricated () =
  let consistent =
    {
      Cache.budget_bytes = 100.0;
      lookups = 5;
      hits = 2;
      misses = 3;
      insertions = 3;
      evictions = 1;
      invalidations = 0;
      rejections = 0;
      bytes_inserted = 120.0;
      bytes_evicted = 40.0;
      bytes_invalidated = 0.0;
      bytes_in_cache = 80.0;
      entries = 2;
    }
  in
  checkb "consistent record passes" true (cache_rules consistent = []);
  let rules = cache_rules in
  checkb "lookup split violation" true
    (List.mem "cache-lookup-split" (rules { consistent with Cache.hits = 1 }));
  checkb "entry conservation violation" true
    (List.mem "cache-entry-conservation" (rules { consistent with Cache.entries = 7 }));
  checkb "byte conservation violation" true
    (List.mem "cache-byte-conservation" (rules { consistent with Cache.bytes_in_cache = 10.0 }));
  checkb "over budget violation" true
    (List.mem "cache-over-budget"
       (rules { consistent with Cache.bytes_in_cache = 120.0; bytes_inserted = 160.0 }));
  checkb "negative counter violation" true
    (List.mem "cache-negative" (rules { consistent with Cache.hits = -2; lookups = 1 }))

(* --- the engine --- *)

(* A small, fast mix: two cheap analogues, modest granularity, no SSSP. *)
let engine_mix =
  {
    Job.name = "test";
    description = "engine tests";
    algorithms = [ (Advisor.Pagerank, 2.0); (Advisor.Connected_components, 1.0) ];
    datasets = [ ("roadnet_pa", 2.0); ("youtube", 1.0) ];
    partition_counts = [ (32, 1.0) ];
    mean_interarrival_s = 0.5;
  }

let stream = Job.generate ~seed:21L ~jobs:8 engine_mix

let run ?(policy = Engine.Fifo) ?(selection = Engine.Cache_aware 0.25) ?telemetry
    ?(budget_bytes = 8.0e9) () =
  Engine.run ~slots:2 ~budget_bytes ~iterations:4 ?telemetry ~policy ~selection ~seed:21L stream

let test_engine_deterministic () =
  checkb "run-twice digest" true
    (Workload_check.run_twice ~label:"engine" (fun () -> run ()) = [])

(* The chaos runner's and the CLI's battery: one traced run checked
   against its events, one untraced replay — two engine runs, and a
   replay that drifts from the traced run is a divergence. *)
let test_engine_check_run () =
  let calls = ref 0 in
  let counted ?telemetry () =
    incr calls;
    run ?telemetry ()
  in
  let report, digest, vs = Workload_check.check_run ~label:"engine" counted in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Cutfit_check.Violation.rule) vs);
  checki "two engine runs" 2 !calls;
  Alcotest.(check string) "returns the traced run's report" (Workload_check.digest (run ()))
    (Workload_check.digest report);
  Alcotest.(check string) "and its digest" (Workload_check.digest report) digest;
  let drifting ?telemetry () =
    incr calls;
    run ?telemetry ~policy:(if !calls mod 2 = 0 then Engine.Sjf else Engine.Fifo) ()
  in
  let _, _, vs = Workload_check.check_run ~label:"drift" drifting in
  checkb "drifting replay diverges" true
    (List.exists (fun v -> v.Cutfit_check.Violation.rule = "divergence") vs)

let test_engine_report_clean () =
  let sink, read = Cutfit_obs.Sink.ring ~capacity:4096 () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let report = run ~telemetry () in
  Cutfit_obs.Telemetry.close telemetry;
  let violations = Workload_check.report ~events:(read ()) report in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Cutfit_check.Violation.rule) violations);
  checki "all jobs recorded" (List.length stream) (List.length report.Engine.records)

let test_engine_cache_effect () =
  let cached = run () in
  let uncached = run ~budget_bytes:0.0 () in
  checkb "reuse mix produces hits" true (Engine.hit_rate cached > 0.0);
  checkb "disabled cache never hits" true (Engine.hit_rate uncached = 0.0);
  checki "disabled cache rejects every build" uncached.Engine.cache.Cache.misses
    uncached.Engine.cache.Cache.rejections;
  let paid = Engine.total_partition_s in
  checkb "cache saves partitioning time" true (paid cached < paid uncached);
  List.iter
    (fun (r : Engine.job_record) ->
      if r.Engine.start.Cutfit.Event.cache_hit then
        Alcotest.(check (float 0.0)) "hits pay no partitioning" 0.0 r.Engine.partition_s)
    cached.Engine.records

let test_engine_policies_same_jobs () =
  let ids report =
    List.sort compare (List.map (fun (r : Engine.job_record) -> r.Engine.job.Job.id) report.Engine.records)
  in
  let fifo = run ~policy:Engine.Fifo () in
  let sjf = run ~policy:Engine.Sjf () in
  checkb "same job set under both policies" true (ids fifo = ids sjf);
  checkb "fifo starts in arrival order" true
    (let starts =
       List.sort
         (fun (a : Engine.job_record) b ->
           compare a.Engine.start.Cutfit.Event.start_s b.Engine.start.Cutfit.Event.start_s)
         fifo.Engine.records
     in
     let arrivals = List.map (fun (r : Engine.job_record) -> r.Engine.job.Job.arrival_s) starts in
     List.sort compare arrivals = arrivals)

let test_engine_selection_modes () =
  List.iter
    (fun selection ->
      let report = run ~selection () in
      checkb
        (Printf.sprintf "selection %s is clean" (Engine.selection_name selection))
        true
        (Workload_check.report report = []))
    [ Engine.Heuristic; Engine.Measured ]

(* One row per engine argument check: each must raise the structured
   [Spec_error] naming the offending argument, before any job runs. *)
let test_engine_validator () =
  let rejects item f =
    match f () with
    | (_ : Engine.report) -> Alcotest.failf "%s: accepted" item
    | exception Cutfit.Spec_error.Error e ->
        Alcotest.(check string) (item ^ ": dsl") "workload" e.Cutfit.Spec_error.dsl;
        Alcotest.(check (option string)) (item ^ ": item") (Some item) e.Cutfit.Spec_error.item
  in
  let run = Engine.run ~seed:1L in
  List.iter
    (fun (item, f) -> rejects item f)
    [
      ("slots", fun () -> run ~slots:0 []);
      ("budget_bytes", fun () -> run ~budget_bytes:(-1.0) []);
      ("budget_bytes", fun () -> run ~budget_bytes:Float.nan []);
      ("budget_bytes", fun () -> run ~budget_bytes:Float.infinity []);
      ("selection", fun () -> run ~selection:(Engine.Cache_aware (-0.1)) []);
      ("selection", fun () -> run ~selection:(Engine.Cache_aware Float.nan) []);
      ("checkpoint_every", fun () -> run ~checkpoint_every:0 []);
      ("max_retries", fun () -> run ~max_retries:(-1) []);
      ("queue_bound", fun () -> run ~queue_bound:0 []);
      ("deadline", fun () -> run ~deadline:(Engine.Absolute 0.0) []);
      ("deadline", fun () -> run ~deadline:(Engine.Factor (-2.0)) []);
      ("breaker_k", fun () -> run ~breaker_k:0 []);
      ("breaker_cooldown_s", fun () -> run ~breaker_cooldown_s:(-1.0) []);
      ("backpressure", fun () -> run ~backpressure:(-1) []);
      ("mutate_every", fun () -> run ~mutate_every:0 []);
      ("tenant_weights", fun () -> run ~tenant_weights:[ ("", 1.0) ] []);
      ("tenant_weights", fun () -> run ~tenant_weights:[ ("acme", 0.0) ] []);
      ("tenant_quota", fun () -> run ~tenant_quota:0 []);
      ("tenant_deadlines", fun () -> run ~tenant_deadlines:[ ("acme", Engine.Factor 0.0) ] []);
    ];
  (* A zero budget is the no-cache control arm, not an error. *)
  checki "zero budget runs" 0 (List.length (run ~budget_bytes:0.0 []).Engine.records)

let test_report_lines_roundtrip () =
  let report = run () in
  let lines = Engine.report_lines report in
  checki "one line per record plus params and cache" (List.length report.Engine.records + 2)
    (List.length lines);
  List.iter
    (fun line ->
      match Cutfit_obs.Json.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparsable report line %s: %s" line e)
    lines

let suite =
  [
    Alcotest.test_case "job stream deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "job stream shape" `Quick test_generate_shape;
    Alcotest.test_case "job stream validation" `Quick test_generate_validation;
    Alcotest.test_case "cache hit/miss/evict" `Quick test_cache_hit_miss_evict;
    Alcotest.test_case "cache lru recency" `Quick test_cache_lru_recency;
    Alcotest.test_case "cache cost-aware eviction" `Quick test_cache_cost_aware;
    Alcotest.test_case "cache availability gating" `Quick test_cache_availability;
    Alcotest.test_case "cache reject / disabled" `Quick test_cache_reject_and_disabled;
    Alcotest.test_case "cache reinsert replaces" `Quick test_cache_reinsert_replaces;
    Alcotest.test_case "cache eviction order deterministic" `Quick
      test_cache_eviction_order_deterministic;
    Alcotest.test_case "cache accounting fabricated" `Quick test_cache_accounting_fabricated;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine report clean" `Quick test_engine_report_clean;
    Alcotest.test_case "engine check_run replays once" `Quick test_engine_check_run;
    Alcotest.test_case "engine cache effect" `Quick test_engine_cache_effect;
    Alcotest.test_case "engine policies same jobs" `Quick test_engine_policies_same_jobs;
    Alcotest.test_case "engine selection modes" `Quick test_engine_selection_modes;
    Alcotest.test_case "engine validator" `Quick test_engine_validator;
    Alcotest.test_case "report lines roundtrip" `Quick test_report_lines_roundtrip;
  ]

(* --- partial invalidation (the dynamic-graph hook) --- *)

let test_cache_invalidate_partial () =
  let c = Cache.create ~budget_bytes:1000.0 () in
  ignore (insert c (key "g1" "RVC") ~bytes:10.0);
  ignore (insert c (key "g1" "1D") ~bytes:20.0);
  ignore (insert c (key "g2" "RVC") ~bytes:30.0);
  let dropped = Cache.invalidate c ~pred:(fun k -> k.Cache.graph = "g1") in
  Alcotest.(check (list string)) "drops exactly g1's keys, in insertion order"
    [ "g1/RVC/128"; "g1/1D/128" ]
    (List.map (fun (k, _) -> Cache.key_id k) dropped);
  Alcotest.(check (list (float 0.0))) "dropped bytes" [ 10.0; 20.0 ]
    (List.map snd dropped);
  checkb "g1 misses" true (Cache.find c ~at_s:0.0 (key "g1" "RVC") = None);
  checkb "g2 survives warm" true (Cache.find c ~at_s:0.0 (key "g2" "RVC") <> None);
  let s = Cache.stats c in
  checki "counted as invalidations" 2 s.Cache.invalidations;
  checki "not as evictions" 0 s.Cache.evictions;
  checki "conservation: entries = ins - ev - inv" s.Cache.entries
    (s.Cache.insertions - s.Cache.evictions - s.Cache.invalidations);
  Alcotest.(check (float 0.0)) "bytes invalidated" 30.0 s.Cache.bytes_invalidated

let test_cache_peek_entries_uncounted () =
  let c = Cache.create ~budget_bytes:1000.0 () in
  ignore (insert c (key "g1" "RVC") ~bytes:10.0);
  ignore (insert c (key "g2" "RVC") ~bytes:10.0);
  let before = Cache.stats c in
  let peeked = Cache.peek_entries c ~pred:(fun k -> k.Cache.graph = "g1") in
  checki "peek sees the matching entry" 1 (List.length peeked);
  checkb "peek returns the payload" true (List.for_all (fun (_, pg) -> pg == payload) peeked);
  let after = Cache.stats c in
  checki "no lookup counted" before.Cache.lookups after.Cache.lookups;
  checki "no hit counted" before.Cache.hits after.Cache.hits

let suite =
  suite
  @ [
      Alcotest.test_case "cache partial invalidation" `Quick test_cache_invalidate_partial;
      Alcotest.test_case "cache peek uncounted" `Quick test_cache_peek_entries_uncounted;
    ]

(* --- traces kept on cache entries --- *)

let payload_trace =
  let cluster = { Cutfit_bsp.Cluster.config_i with Cutfit_bsp.Cluster.num_partitions = 4 } in
  snd
    (Cutfit.Pipeline.pagerank ~iterations:2
       (Cutfit.Pipeline.of_pgraph ~cluster ~partitioner:(Partitioner.Hash Strategy.Rvc) payload))

let stored c k ~pg = Option.is_some (Cache.find_trace c k ~pg "PR")

let test_cache_traces_follow_entry () =
  let k = key "g" "RVC" in
  let c = Cache.create ~budget_bytes:100.0 () in
  Cache.store_trace c k ~pg:payload "PR" payload_trace;
  checkb "no entry, nothing stored" false (stored c k ~pg:payload);
  ignore (insert c k ~bytes:40.0);
  Cache.store_trace c k ~pg:payload "PR" payload_trace;
  checkb "stored on the entry" true
    (match Cache.find_trace c k ~pg:payload "PR" with
    | Some t -> t == payload_trace
    | None -> false);
  checkb "keyed by algorithm" false (Option.is_some (Cache.find_trace c k ~pg:payload "CC"));
  let s = Cache.stats c in
  checki "uncounted" 0 s.Cache.lookups;
  ignore (insert c k ~bytes:40.0);
  checkb "re-insert of the same key drops them" false (stored c k ~pg:payload);
  Cache.store_trace c k ~pg:payload "PR" payload_trace;
  ignore (Cache.invalidate c ~pred:(fun _ -> true));
  ignore (insert c k ~bytes:40.0);
  checkb "invalidation drops them" false (stored c k ~pg:payload);
  Cache.store_trace c k ~pg:payload "PR" payload_trace;
  ignore (insert c (key "h" "RVC") ~bytes:80.0);
  checkb "evicted" true (Cache.find c ~at_s:0.0 k = None);
  ignore (insert c k ~bytes:10.0);
  checkb "eviction drops them" false (stored c k ~pg:payload)

let test_cache_traces_other_pgraph () =
  let k = key "g" "RVC" in
  let c = Cache.create ~budget_bytes:100.0 () in
  ignore (insert c k ~bytes:40.0);
  Cache.store_trace c k ~pg:payload "PR" payload_trace;
  let twin =
    let g = Pgraph.graph payload in
    Pgraph.build g ~num_partitions:4 (Pgraph.assignment payload)
  in
  checkb "an equal but distinct partitioning finds nothing" false (stored c k ~pg:twin);
  Cache.store_trace c k ~pg:twin "CC" payload_trace;
  checkb "nor stores anything" false (Option.is_some (Cache.find_trace c k ~pg:payload "CC"));
  checkb "the entry's own trace stays" true (stored c k ~pg:payload)

(* Attempts under a fault schedule never reuse a trace (each is
   reseeded per job and attempt), so a faulted stream with cache hits
   keeps the report and event digests it had before traces were kept. *)
let test_faulted_stream_unchanged () =
  let jobs = Job.generate ~seed:13L ~jobs:12 (Option.get (Job.find_mix "reuse-heavy")) in
  let faults = Cutfit_bsp.Faults.config ~seed:13 "straggler@2:x4,rand@0.1" in
  let sink, read = Cutfit_obs.Sink.collect () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let r = Engine.run ~telemetry ~faults ~checkpoint_every:2 ~seed:13L jobs in
  Cutfit_obs.Telemetry.close telemetry;
  checki "hits" 10 r.Engine.cache.Cache.hits;
  Alcotest.(check string) "report digest" "da54a5cac8ca19224d1c429c85770cf4"
    (Workload_check.digest r);
  Alcotest.(check string) "event digest" "d8e63860291dd5267dbf74927dab7766"
    (Cutfit_check.Determinism.events_digest (read ()))

let suite =
  suite
  @ [
      Alcotest.test_case "cache traces follow their entry" `Quick test_cache_traces_follow_entry;
      Alcotest.test_case "cache traces need the same pgraph" `Quick test_cache_traces_other_pgraph;
      Alcotest.test_case "faulted stream digests unchanged" `Quick test_faulted_stream_unchanged;
    ]

(* --- the event stream against the report --- *)

module Event = Cutfit_obs.Event

let observed run =
  let sink, read = Cutfit_obs.Sink.collect () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let r = run telemetry in
  Cutfit_obs.Telemetry.close telemetry;
  (r, read ())

let rules vs = List.sort_uniq compare (List.map (fun v -> v.Cutfit_check.Violation.rule) vs)

(* A two-tenant stream under a queue bound and a tenant quota, with an
   executor join and a preemption: it sheds, throttles, retries and
   hits the cache. *)
let defect_run () =
  let jobs =
    Job.generate ~seed:1L ~jobs:14
      ~tenants:[ ("acme", 3.0); ("beta", 1.0) ]
      (Option.get (Job.find_mix "reuse-heavy"))
  in
  observed (fun telemetry ->
      Engine.run ~telemetry ~queue_bound:3 ~tenant_quota:2
        ~scale_events:(Cutfit_bsp.Elastic.config "join@4+1,preempt@6:r1")
        ~seed:1L jobs)

(* Drop the first event [p] selects. *)
let drop_first p events =
  let rec go = function [] -> [] | e :: rest -> if p e then rest else e :: go rest in
  go events

let test_event_defects_fire_their_rule () =
  let r, events = defect_run () in
  Alcotest.(check (list string)) "intact event stream" [] (rules (Workload_check.report ~events r));
  let win =
    Event.Speculative_win
      {
        Event.step = 0;
        executor = 0;
        host = 1;
        cloned_partitions = 1;
        original_busy_s = 2.0;
        clone_busy_s = 1.0;
        wire_bytes = 0.0;
        compute_s = 1.0;
        won = true;
        saved_s = 1.0;
      }
  in
  let unknown_end =
    Event.Job_end
      {
        Event.job_id = 1_000_000;
        outcome = "completed";
        partition_s = 0.0;
        exec_s = 1.0;
        finish_s = 1.0;
      }
  in
  List.iter
    (fun (what, rule, defect) ->
      Alcotest.(check (list string)) what [ rule ]
        (rules (Workload_check.report ~events:(defect events) r)))
    [
      ( "dropped Job_submit",
        "event-submits",
        drop_first (function Event.Job_submit _ -> true | _ -> false) );
      ( "dropped Job_start",
        "event-starts",
        drop_first (function Event.Job_start _ -> true | _ -> false) );
      ( "dropped queue Job_shed",
        "event-sheds",
        drop_first (function Event.Job_shed s -> s.Event.policy <> "quota" | _ -> false) );
      ( "dropped Job_retry",
        "event-retries",
        drop_first (function Event.Job_retry _ -> true | _ -> false) );
      ( "dropped Executor_join",
        "event-scale",
        drop_first (function Event.Executor_join _ -> true | _ -> false) );
      ( "dropped hit Cache_op",
        "event-cache-ops",
        drop_first (function Event.Cache_op c -> c.Event.op = "hit" | _ -> false) );
      ( "dropped Tenant_throttle",
        "event-throttle",
        drop_first (function Event.Tenant_throttle _ -> true | _ -> false) );
      ("Speculative_win with no launch", "event-speculation", fun evs -> evs @ [ win ]);
      ("Job_end for an unknown job", "event-orphan", fun evs -> evs @ [ unknown_end ]);
    ]

(* Retries, breaker opens and closes, a preemption, a join and a leave,
   over two tenants. *)
let sharing_run () =
  let jobs =
    Job.generate ~seed:1L ~jobs:10
      ~tenants:[ ("acme", 1.0); ("beta", 1.0) ]
      (Option.get (Job.find_mix "reuse-heavy"))
  in
  observed (fun telemetry ->
      Engine.run ~telemetry ~max_retries:6 ~breaker_k:2 ~breaker_cooldown_s:1.0
        ~selection:Engine.Heuristic
        ~faults:(Cutfit_bsp.Faults.config ~seed:1 ~max_failures:0 "rand@0.5")
        ~scale_events:(Cutfit_bsp.Elastic.config "leave@5-1,join@9+2,preempt@12:r1")
        ~seed:1L jobs)

let test_events_share_records () =
  let r, events = sharing_run () in
  checkb "retries" true (r.Engine.retries > 0);
  checkb "a preemption" true (Engine.preemptions r > 0);
  checkb "a join and a leave" true (r.Engine.joins > 0 && r.Engine.leaves > 0);
  checki "no deadline culls" 0 (Engine.deadline_jobs r);
  let same what pairs =
    checkb (what ^ ": some recorded") true (pairs <> []);
    List.iter
      (fun (stored, emitted) -> checkb (what ^ ": same value") true (stored == emitted))
      pairs
  in
  (* Every record that ran keeps its final attempt's Job_start payload. *)
  let last_start = Hashtbl.create 16 in
  List.iter
    (function Event.Job_start s -> Hashtbl.replace last_start s.Event.job_id s | _ -> ())
    events;
  same "job_start"
    (List.filter_map
       (fun (x : Engine.job_record) ->
         if x.Engine.attempts = 0 then None
         else Some (x.Engine.start, Hashtbl.find last_start x.Engine.job.Job.id))
       r.Engine.records);
  let pair what stored emitted =
    checki (what ^ ": one event per trip") (List.length stored) (List.length emitted);
    same what (List.combine stored emitted)
  in
  let trips f =
    List.filter_map (fun (t : Engine.breaker_trip) -> f t.Engine.transition) r.Engine.breaker_trips
  in
  pair "breaker_open"
    (trips (function Engine.Opened b -> Some b | Engine.Closed _ -> None))
    (List.filter_map (function Event.Breaker_open b -> Some b | _ -> None) events);
  pair "breaker_close"
    (trips (function Engine.Closed b -> Some b | Engine.Opened _ -> None))
    (List.filter_map (function Event.Breaker_close b -> Some b | _ -> None) events);
  Alcotest.(check (list string)) "sanitizer clean" [] (rules (Workload_check.report ~events r))

(* Far more events than a ring sink keeps: 70,000 jobs on an unknown
   dataset, each failing at admission after one Job_submit. *)
let test_check_run_sees_every_event () =
  let jobs =
    List.init 70_000 (fun i ->
        {
          Job.id = i;
          arrival_s = float_of_int i;
          algorithm = Advisor.Pagerank;
          dataset = "no-such-graph";
          num_partitions = 4;
          tenant = Job.default_tenant;
        })
  in
  let r, _, vs =
    Workload_check.check_run ~label:"long stream" (fun ?telemetry () ->
        Engine.run ?telemetry ~seed:1L jobs)
  in
  checki "every job failed at admission" 70_000 (Engine.failed_jobs r);
  Alcotest.(check (list string)) "clean" [] (rules vs)

let suite =
  suite
  @ [
      Alcotest.test_case "event defects fire their rule" `Quick test_event_defects_fire_their_rule;
      Alcotest.test_case "events share records" `Quick test_events_share_records;
      Alcotest.test_case "check_run sees every event" `Quick test_check_run_sees_every_event;
    ]
