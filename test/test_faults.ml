(* The fault layer end to end: the spec parser, the stateless plan
   draws, the recovery-equivalence invariant (faulty runs must land on
   bit-identical vertex values under both recovery modes), the abort
   path past the crash budget, and the workload engine's structured
   retry/failure semantics. *)

module Faults = Cutfit_bsp.Faults
module Pricer = Cutfit_bsp.Pricer
module Trace = Cutfit_bsp.Trace
module Cost_model = Cutfit_bsp.Cost_model
module Pipeline = Cutfit.Pipeline
module Advisor = Cutfit.Advisor
module Check = Cutfit.Check
module Fault_check = Check.Fault_check
module Sanitize = Cutfit.Sanitize
module Engine = Cutfit_workload.Engine
module Job = Cutfit_workload.Job
module Cache = Cutfit_workload.Cache
module Workload_check = Cutfit_workload.Workload_check

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_clean what vs = Alcotest.(check int) (what ^ " is clean") 0 (List.length vs)
let has_rule rule vs = List.exists (fun v -> v.Check.Violation.rule = rule) vs

let check_rule what rule vs =
  checkb (Printf.sprintf "%s reports %s" what rule) true (has_rule rule vs)

(* --- spec parsing --- *)

let test_parse_spec () =
  let spec = "crash@3:e1, straggler@2-4:x2.5, net@1-2:x0.5, loss@2:e0:r3, rand@0.1" in
  (match (Faults.config spec).Faults.items with
  | [
   Faults.Crash { step = 3; executor = Some 1 };
   Faults.Straggler { from_step = 2; to_step = 4; executor = None; factor = 2.5 };
   Faults.Net { from_step = 1; to_step = 2; factor = 0.5 };
   Faults.Loss { step = 2; executor = Some 0; retries = 3 };
   Faults.Rand { rate = 0.1 };
  ] ->
      ()
  | _ -> Alcotest.fail "spec did not parse to the expected items");
  (* defaults *)
  (match (Faults.config "straggler@1,net@1,loss@1").Faults.items with
  | [
   Faults.Straggler { factor = 4.0; executor = None; _ };
   Faults.Net { factor = 0.25; _ };
   Faults.Loss { retries = 1; executor = None; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "defaults did not apply")

let test_parse_spec_rejects () =
  let rejects spec =
    match (Faults.config spec).Faults.items with
    | exception Cutfit_bsp.Spec_error.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "spec %S should not parse" spec)
  in
  List.iter rejects
    [
      "crash@0" (* build stage is never faulted *);
      "crash@two";
      "straggler@3-1" (* backwards window *);
      "straggler@2:x0.5" (* slowdown below 1 *);
      "net@1:x0" (* zero bandwidth *);
      "net@1:x2" (* speedup *);
      "loss@1:r0";
      "rand@1.5";
      "meteor@3" (* unknown kind *);
      "crash@1:x3" (* option not valid for the kind *);
      "crash" (* missing @ *);
    ]

(* --- to_spec: the canonical inverse of the spec parser --- *)

let fault_items_gen =
  let open QCheck2.Gen in
  let step = int_range 1 30 in
  let exec = opt ~ratio:0.4 (int_range 0 7) in
  let item =
    oneof
      [
        (pair step exec >|= fun (step, executor) -> Faults.Crash { step; executor });
        ( pair (pair step (int_range 0 5)) (pair exec (oneofl [ 1.0; 1.5; 2.0; 3.25; 4.0; 7.5 ]))
        >|= fun ((from_step, w), (executor, factor)) ->
          Faults.Straggler { from_step; to_step = from_step + w; executor; factor } );
        ( pair (pair step (int_range 0 5)) (oneofl [ 0.1; 0.25; 0.5; 0.875; 1.0 ])
        >|= fun ((from_step, w), factor) -> Faults.Net { from_step; to_step = from_step + w; factor }
        );
        ( pair (pair step exec) (int_range 1 5) >|= fun ((step, executor), retries) ->
          Faults.Loss { step; executor; retries } );
        (oneofl [ 0.0; 0.05; 0.1; 0.33; 1.0 ] >|= fun rate -> Faults.Rand { rate });
      ]
  in
  list_size (int_range 1 6) item

let test_to_spec_round_trip =
  Test_util.qtest ~count:300 "faults: parse (to_spec items) = items" ~print:Faults.to_spec
    fault_items_gen
    (fun items -> (Faults.config (Faults.to_spec items)).Faults.items = items)

let test_to_spec_minimal () =
  checks "defaults omitted" "crash@3,straggler@2-4,net@1,loss@5"
    (Faults.to_spec (Faults.config "crash@3,straggler@2-4:x4,net@1:x0.25,loss@5:r1").Faults.items);
  checks "non-defaults kept"
    "crash@3:e1,straggler@2:e0:x2.5,net@1-2:x0.5,loss@2:e0:r3,rand@0.1"
    (Faults.to_spec
       (Faults.config "crash@3:e1, straggler@2-2:e0:x2.5, net@1-2:x0.5, loss@2:e0:r3, rand@0.1")
         .Faults.items)

let test_config_describe () =
  let c = Faults.config ~seed:7 ~max_failures:1 ~mode:Faults.Lineage "crash@2:e0" in
  checki "seed" 7 c.Faults.seed;
  checki "budget" 1 c.Faults.max_failures;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "describe mentions the mode" true (contains (Faults.describe c) "lineage")

(* --- realized plans: stateless, seeded, step 0 neutral --- *)

let test_plan_deterministic () =
  let c = Faults.config ~seed:11 "rand@0.5,straggler@2-5:x3" in
  let plans session = List.map (fun step -> Faults.plan session ~step) [ 5; 1; 3; 2; 4 ] in
  let a = plans (Faults.session ~executors:4 c) in
  let b = plans (Faults.session ~executors:4 c) in
  (* out-of-order and replayed calls must agree draw for draw *)
  List.iter2
    (fun (pa : Faults.plan) (pb : Faults.plan) ->
      checkb "network factor replays" true (pa.Faults.network_factor = pb.Faults.network_factor);
      checkb "crash replays" true (pa.Faults.crash = pb.Faults.crash);
      checkb "loss replays" true (pa.Faults.loss = pb.Faults.loss);
      for e = 0 to 3 do
        checkb "compute factor replays" true
          (pa.Faults.compute_factor e = pb.Faults.compute_factor e)
      done)
    a b

let test_plan_step_zero_neutral () =
  let c = Faults.config "crash@1,straggler@1-9:x5,net@1-9:x0.1,loss@1,rand@1.0" in
  let session = Faults.session ~executors:4 c in
  let p = Faults.plan session ~step:0 in
  checkb "no crash at step 0" true (p.Faults.crash = None);
  checkb "no loss at step 0" true (p.Faults.loss = None);
  checkb "full bandwidth at step 0" true (p.Faults.network_factor = 1.0);
  checkb "no slowdown at step 0" true (p.Faults.compute_factor 0 = 1.0);
  checkb "nothing announced at step 0" true (p.Faults.announce = [])

let test_crash_budget () =
  let c = Faults.config ~max_failures:1 "crash@1" in
  let s = Faults.session ~executors:4 c in
  checkb "first crash recovers" true (Faults.note_crash s = `Recover);
  checkb "second crash aborts" true (Faults.note_crash s = `Abort)

let test_retry_backoff () =
  let cm = Cost_model.default in
  let base = cm.Cost_model.retry_backoff_base_s in
  Alcotest.(check (float 1e-12)) "one retry" base (Cost_model.retry_backoff cm ~retries:1);
  Alcotest.(check (float 1e-12))
    "three retries sum the doubling series"
    (base +. (2.0 *. base) +. (4.0 *. base))
    (Cost_model.retry_backoff cm ~retries:3);
  checkb "cap bounds every delay" true
    (Cost_model.retry_backoff cm ~retries:30
    <= float_of_int 30 *. cm.Cost_model.retry_backoff_cap_s)

(* --- recovery equivalence: faulty runs land on bit-identical values --- *)

let cluster = Test_util.tiny_cluster ()
let g1 = Test_util.random_graph ~seed:77L ~n:200 ~m:1400
let g2 = Test_util.random_graph ~seed:5L ~n:120 ~m:900

let run_pagerank ?what_if g =
  let p = Pipeline.prepare ~cluster ?what_if ~algorithm:Advisor.Pagerank g in
  let ranks, trace = Pipeline.pagerank ~iterations:8 p in
  (Fault_check.float_attrs_digest ranks, trace)

let run_sssp ?what_if g =
  let p = Pipeline.prepare ~cluster ?what_if ~algorithm:Advisor.Shortest_paths g in
  let dists, trace = Pipeline.shortest_paths ~landmarks:[| 0; 3 |] p in
  (Fault_check.int_attrs_digest (Array.concat (Array.to_list dists)), trace)

let equivalence_case ~label ~mode
    (run :
      ?what_if:Pricer.what_if -> Cutfit_graph.Graph.t -> string * Trace.t)
    graph =
  let faults = Faults.config ~mode "crash@2,straggler@1-3:x3,loss@3" in
  let baseline_attrs, baseline = run graph in
  let faulty_attrs, faulty =
    run ~what_if:{ Pricer.static with faults = Some faults; checkpoint_every = Some 2 } graph
  in
  checkb (label ^ ": faulty run completed") true (Trace.completed faulty);
  checkb (label ^ ": recovery actually happened") true (Trace.num_recoveries faulty > 0);
  checks (label ^ ": bit-identical values") baseline_attrs faulty_attrs;
  check_clean
    (label ^ " equivalence")
    (Fault_check.equivalence ~label ~baseline ~faulty ~baseline_attrs ~faulty_attrs ());
  check_clean (label ^ " faulty-trace conservation") (Check.Trace_check.validate faulty)

let test_equivalence_rollback () =
  equivalence_case ~label:"pr/g1/rollback" ~mode:Faults.Rollback run_pagerank g1;
  equivalence_case ~label:"sssp/g2/rollback" ~mode:Faults.Rollback run_sssp g2

let test_equivalence_lineage () =
  equivalence_case ~label:"pr/g2/lineage" ~mode:Faults.Lineage run_pagerank g2;
  equivalence_case ~label:"sssp/g1/lineage" ~mode:Faults.Lineage run_sssp g1

let test_equivalence_without_checkpoints () =
  (* no checkpoint cadence: rollback falls back to a full reload + replay *)
  let faults = Faults.config ~mode:Faults.Rollback "crash@3" in
  let baseline_attrs, baseline = run_pagerank g1 in
  let faulty_attrs, faulty = run_pagerank ~what_if:{ Pricer.static with faults = Some faults } g1 in
  checkb "completed without checkpoints" true (Trace.completed faulty);
  checks "bit-identical values" baseline_attrs faulty_attrs;
  check_clean "equivalence"
    (Fault_check.equivalence ~baseline ~faulty ~baseline_attrs ~faulty_attrs ())

let test_abort_past_budget () =
  let faults = Faults.config ~max_failures:0 "crash@2" in
  let _attrs, faulty = run_pagerank ~what_if:{ Pricer.static with faults = Some faults } g2 in
  checkb "aborted" true (faulty.Trace.outcome = Trace.Aborted);
  checkb "not completed" false (Trace.completed faulty);
  checks "outcome name" "aborted" (Trace.outcome_name faulty.Trace.outcome)

let test_sanitize_sixth_suite () =
  let faults = Faults.config "crash@2,rand@0.1" in
  let report =
    Sanitize.check_run ~cluster ~checkpoint_every:2 ~faults ~algorithm:Advisor.Pagerank g2
  in
  checkb "sanitizer ok under faults" true (Sanitize.ok report);
  checkb "faults suite present" true (List.mem_assoc "faults" report.Sanitize.suites);
  checki "six suites" 6 (List.length report.Sanitize.suites)

(* --- fabricated divergence: the checker must object --- *)

let test_equivalence_detects_divergence () =
  let baseline_attrs, baseline = run_pagerank g2 in
  (* the straggler stretches supersteps, so the swapped direction below
     is strictly cheaper and must trip the time law *)
  let faults = Faults.config "crash@2,straggler@1-4:x3" in
  let faulty_attrs, faulty =
    run_pagerank ~what_if:{ Pricer.static with faults = Some faults; checkpoint_every = Some 2 } g2
  in
  (* tampered values *)
  check_rule "tampered digest" "value-divergence"
    (Fault_check.equivalence ~baseline ~faulty ~baseline_attrs ~faulty_attrs:"deadbeef" ());
  (* swapped roles: the "baseline" carries recoveries, and the genuinely
     fault-free "faulty" run sums cheaper than the stretched one *)
  let swapped =
    Fault_check.equivalence ~baseline:faulty ~faulty:baseline
      ~baseline_attrs:faulty_attrs ~faulty_attrs:baseline_attrs ()
  in
  check_rule "faulted baseline" "baseline-faulted" swapped;
  check_rule "cheaper faulty run" "time-regression" swapped

(* --- workload engine: retries, invalidation, structured failure --- *)

let wl_mix =
  {
    Job.name = "test-faults";
    description = "fault tests";
    algorithms = [ (Advisor.Pagerank, 2.0); (Advisor.Connected_components, 1.0) ];
    datasets = [ ("roadnet_pa", 2.0); ("youtube", 1.0) ];
    partition_counts = [ (32, 1.0) ];
    mean_interarrival_s = 0.5;
  }

let wl_stream = Job.generate ~seed:21L ~jobs:6 wl_mix

let wl_run ?telemetry ?faults ?(max_retries = 1) () =
  Engine.run ~slots:2 ~iterations:4 ?telemetry ?faults ~max_retries ~seed:21L wl_stream

(* A pinned crash with a zero budget kills every attempt of every job:
   retries exhaust deterministically and each job fails structurally. *)
let killer = Faults.config ~max_failures:0 "crash@1"

let test_workload_structural_failure () =
  let r = wl_run ~faults:killer () in
  checki "every job fails" (List.length wl_stream) (Engine.failed_jobs r);
  checki "one retry per job" (List.length wl_stream) r.Engine.retries;
  List.iter
    (fun (rec_ : Engine.job_record) ->
      checkb "failure names the cause" true
        (match rec_.Engine.failure with Some reason -> String.length reason > 0 | None -> false);
      checks "aborted outcome" "aborted" rec_.Engine.outcome;
      checki "attempts = 1 + max_retries" 2 rec_.Engine.attempts)
    r.Engine.records;
  (* a failure never escapes as an exception, and the report stays lawful *)
  let sink, read = Cutfit_obs.Sink.ring ~capacity:8192 () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let r2 = wl_run ~telemetry ~faults:killer () in
  Cutfit_obs.Telemetry.close telemetry;
  Alcotest.(check (list string)) "faulty report lawful" []
    (List.map
       (fun v -> v.Check.Violation.rule)
       (Workload_check.report ~events:(read ()) r2))

let test_workload_transient_faults_recover () =
  (* a survivable schedule: every job recovers in-run, nothing retries *)
  let faults = Faults.config "straggler@1-2:x3,loss@2" in
  let r = wl_run ~faults () in
  checki "no failures" 0 (Engine.failed_jobs r);
  checki "no retries" 0 r.Engine.retries;
  checkb "recoveries recorded" true
    (List.exists (fun (x : Engine.job_record) -> x.Engine.recoveries > 0) r.Engine.records);
  check_clean "report" (Workload_check.report r)

let test_workload_faulty_deterministic () =
  check_clean "faulty run-twice digest"
    (Workload_check.run_twice ~label:"faulty-engine" (fun () -> wl_run ~faults:killer ()))

(* Every attempt of every job crashes, so each job is requeued after
   attempts 1..5: the requeue backoff doubles from 2 s and caps at 30 s. *)
let test_retry_delay () =
  let sink, read = Cutfit_obs.Sink.ring ~capacity:8192 () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  ignore (wl_run ~telemetry ~faults:killer ~max_retries:5 ());
  Cutfit_obs.Telemetry.close telemetry;
  let delays =
    List.filter_map
      (function
        | Cutfit_obs.Event.Job_retry r -> Some (r.Cutfit_obs.Event.attempt, r.Cutfit_obs.Event.delay_s)
        | _ -> None)
      (read ())
  in
  checki "five requeues per job" (5 * List.length wl_stream) (List.length delays);
  List.iter
    (fun (attempt, want) ->
      List.iter
        (fun (a, d) -> if a = attempt then Alcotest.(check (float 1e-12)) (Printf.sprintf "attempt %d" a) want d)
        delays)
    [ (1, 2.0); (2, 4.0); (3, 8.0); (4, 16.0); (5, 30.0) ]

let suite =
  [
    Alcotest.test_case "spec parses every kind and default" `Quick test_parse_spec;
    Alcotest.test_case "spec rejects malformed items" `Quick test_parse_spec_rejects;
    test_to_spec_round_trip;
    Alcotest.test_case "to_spec prints the minimal form" `Quick test_to_spec_minimal;
    Alcotest.test_case "config carries seed/budget/mode" `Quick test_config_describe;
    Alcotest.test_case "plans are stateless and seeded" `Quick test_plan_deterministic;
    Alcotest.test_case "step 0 is never faulted" `Quick test_plan_step_zero_neutral;
    Alcotest.test_case "crash budget aborts past max_failures" `Quick test_crash_budget;
    Alcotest.test_case "retry backoff arithmetic" `Quick test_retry_backoff;
    Alcotest.test_case "rollback recovery is value-identical" `Quick test_equivalence_rollback;
    Alcotest.test_case "lineage recovery is value-identical" `Quick test_equivalence_lineage;
    Alcotest.test_case "rollback without checkpoints reloads" `Quick
      test_equivalence_without_checkpoints;
    Alcotest.test_case "crashes past the budget abort the run" `Quick test_abort_past_budget;
    Alcotest.test_case "sanitizer grows a sixth suite under faults" `Quick
      test_sanitize_sixth_suite;
    Alcotest.test_case "equivalence checker objects to divergence" `Quick
      test_equivalence_detects_divergence;
    Alcotest.test_case "workload: pinned crashes fail structurally" `Quick
      test_workload_structural_failure;
    Alcotest.test_case "workload: transient faults recover in-run" `Quick
      test_workload_transient_faults_recover;
    Alcotest.test_case "workload: faulty replay is bit-identical" `Quick
      test_workload_faulty_deterministic;
    Alcotest.test_case "workload retry delay schedule" `Quick test_retry_delay;
  ]
