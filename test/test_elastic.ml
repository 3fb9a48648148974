(* Elasticity and multi-tenancy end to end: the scale-event DSL and its
   stateless realization, heterogeneous host draws, the perturb-only-
   time-and-locality invariant against a static baseline (boxed and
   compact engines), and the workload engine's membership, preemption,
   fairness, quota and breaker-namespace laws. *)

module Elastic = Cutfit_bsp.Elastic
module Trace = Cutfit_bsp.Trace
module Pipeline = Cutfit.Pipeline
module Advisor = Cutfit.Advisor
module Sanitize = Cutfit.Sanitize
module Check = Cutfit.Check
module Elastic_check = Check.Elastic_check
module Fault_check = Check.Fault_check
module Job = Cutfit_workload.Job
module Engine = Cutfit_workload.Engine
module Workload_check = Cutfit_workload.Workload_check

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_clean what vs = Alcotest.(check int) (what ^ " is clean") 0 (List.length vs)
let graph name = Cutfit.Datasets.generate (Cutfit.Datasets.find name)

(* --- the scale-event DSL --- *)

let test_parse_spec () =
  (match (Elastic.config "leave@5-1, join@9+2, preempt@12:r3").Elastic.items with
  | [
   Elastic.Leave { step = 5; count = 1 };
   Elastic.Join { step = 9; count = 2 };
   Elastic.Preempt { step = 12; retries = 3 };
  ] ->
      ()
  | _ -> Alcotest.fail "spec did not parse to the expected items");
  (* defaults: +1, -1, r1 *)
  (match (Elastic.config "join@3,leave@4,preempt@2").Elastic.items with
  | [
   Elastic.Join { count = 1; _ }; Elastic.Leave { count = 1; _ }; Elastic.Preempt { retries = 1; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "defaults did not apply");
  let c = Elastic.config ~seed:7 "leave@5-1,join@9+2" in
  checks "items re-print canonically" "leave@5,join@9+2" (Elastic.to_spec c.Elastic.items);
  checki "seed preserved" 7 c.Elastic.seed;
  checki "total joins" 2 (Elastic.total_joins c);
  let d = Elastic.describe c in
  checkb "describe names the spec" true
    (String.length d > 0
    &&
    let rec has i =
      i + 5 <= String.length d && (String.sub d i 5 = "leave" || has (i + 1))
    in
    has 0)

let test_parse_spec_rejects () =
  let rejects spec =
    match (Elastic.config spec).Elastic.items with
    | exception Cutfit_bsp.Spec_error.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "spec %S should not parse" spec)
  in
  List.iter rejects
    [
      "join@0" (* the build stage never scales *);
      "leave@0";
      "preempt@0";
      "join@3-1" (* the sign is part of the grammar *);
      "leave@3+1";
      "join@2+0";
      "preempt@2:r0";
      "preempt@2:x3" (* option not valid for the kind *);
      "meteor@3" (* unknown kind *);
      "join" (* missing @ *);
      "" (* no events *);
    ]

(* --- to_spec: the canonical inverse of the spec parser --- *)

let elastic_items_gen =
  let open QCheck2.Gen in
  let step = int_range 1 30 in
  let item =
    oneof
      [
        (pair step (int_range 1 4) >|= fun (step, count) -> Elastic.Join { step; count });
        (pair step (int_range 1 4) >|= fun (step, count) -> Elastic.Leave { step; count });
        (pair step (int_range 1 4) >|= fun (step, retries) -> Elastic.Preempt { step; retries });
      ]
  in
  list_size (int_range 1 6) item

let test_to_spec_round_trip =
  Test_util.qtest ~count:300 "scale-events: parse (to_spec items) = items"
    ~print:Elastic.to_spec elastic_items_gen
    (fun items -> (Elastic.config (Elastic.to_spec items)).Elastic.items = items)

let test_to_spec_minimal () =
  checks "defaults omitted" "join@3,leave@4,preempt@2"
    (Elastic.to_spec ((Elastic.config "join@3+1,leave@4-1,preempt@2:r1").Elastic.items));
  checks "non-defaults kept" "leave@5-2,join@9+2,preempt@12:r3"
    (Elastic.to_spec ((Elastic.config "leave@5-2, join@9+2, preempt@12:r3").Elastic.items))

(* --- stateless realization --- *)

(* The events a fresh runtime over [c] fires before superstep [step]. *)
let events_at c ~step =
  let rt = Elastic.runtime ~config:c ~executors:4 () in
  let fired = ref [] in
  Elastic.step_events rt ~step ~num_partitions:8
    ~partition_bytes:(fun _ -> 1.0)
    ~partition_vertices:(fun _ -> 1)
    ~attr_wire_bytes:1.0 ~scale:1.0 ~bandwidth:1.0 ~barrier_s:0.0
    ~on_reshuffle:(fun change _ -> fired := (change :> [ `Join of int | `Leave of int | `Preempt of int ]) :: !fired)
    ~on_preempt:(fun ~executor:_ ~retries -> fired := `Preempt retries :: !fired);
  List.rev !fired

let test_events_are_stateless () =
  let c = Elastic.config ~seed:11 "leave@2-1,join@2+1,preempt@5:r2" in
  (* Same query, any order, any number of times: identical answers. *)
  let at2 = events_at c ~step:2 in
  checkb "both step-2 events fire, in spec order" true (at2 = [ `Leave 1; `Join 1 ]);
  checkb "requery is identical" true (at2 = events_at c ~step:2);
  checki "quiet steps are empty" 0 (List.length (events_at c ~step:3));
  checkb "the preemption fires at its step" true (events_at c ~step:5 = [ `Preempt 2 ]);
  let v = Elastic.victim c ~step:5 ~alive:4 in
  checkb "victim in range" true (v >= 0 && v < 4);
  checki "victim draw is stateless" v (Elastic.victim c ~step:5 ~alive:4);
  (* Different (step, alive) keys eventually vary the draw. *)
  let varies =
    List.exists
      (fun step -> Elastic.victim c ~step ~alive:16 <> Elastic.victim c ~step:5 ~alive:16)
      [ 6; 7; 8; 9; 10; 11; 12 ]
  in
  checkb "victim varies with the step" true varies

let test_hetero_draws () =
  let h = Elastic.draw_hetero ~seed:5 ~executors:8 in
  checkb "draw is deterministic" true (h = Elastic.draw_hetero ~seed:5 ~executors:8);
  Array.iter
    (fun s -> checkb "speed in [0.6, 1.4]" true (s >= 0.6 && s <= 1.4))
    h.Elastic.speeds;
  Array.iter
    (fun b -> checkb "bandwidth in [0.6, 1.4]" true (b >= 0.6 && b <= 1.4))
    h.Elastic.bandwidths;
  let speed h e = Elastic.speed_of (Elastic.runtime ~hetero:h ~executors:8 ()) e in
  let bandwidth h e = Elastic.bandwidth_of (Elastic.runtime ~hetero:h ~executors:8 ()) e in
  checkb "lookup reads the array" true (Float.equal (speed h 3) h.Elastic.speeds.(3));
  checkb "late joiners run at 1.0" true (Float.equal (speed h 99) 1.0 && Float.equal (bandwidth h 99) 1.0);
  let plain = Elastic.runtime ~executors:4 () in
  checkb "no hetero is neutral" true
    (List.for_all (fun e -> Float.equal (Elastic.speed_of plain e) 1.0 && Float.equal (Elastic.bandwidth_of plain e) 1.0) [ 0; 3; 99 ]);
  let e = Elastic.hetero_of_spec ~executors:4 "2.0/0.5,1.0" in
  checkb "explicit entries cycle" true
    (Float.equal (speed e 0) 2.0
    && Float.equal (bandwidth e 0) 0.5
    && Float.equal (speed e 1) 1.0
    && Float.equal (bandwidth e 1) 1.0
    && Float.equal (speed e 2) 2.0);
  match Elastic.hetero_of_spec ~executors:2 "fast" with
  | exception Cutfit_bsp.Spec_error.Error _ -> ()
  | _ -> Alcotest.fail "malformed hetero spec should not parse"

(* --- perturb time and locality only --- *)

let elastic_cfg = Elastic.config ~seed:3 "leave@2-1,join@4+2"

let test_elastic_preserves_values_pr () =
  let g = graph "pocek" in
  let run ?elastic ?hetero () =
    let what_if = { Cutfit.Pricer.static with elastic; hetero } in
    let p = Pipeline.prepare ~what_if ~algorithm:Advisor.Pagerank g in
    Pipeline.pagerank p
  in
  let static_ranks, static_trace = run () in
  let hetero = Elastic.draw_hetero ~seed:3 ~executors:4 in
  let elastic_ranks, elastic_trace = run ~elastic:elastic_cfg ~hetero () in
  checkb "values are bit-identical" true
    (String.equal
       (Fault_check.float_attrs_digest static_ranks)
       (Fault_check.float_attrs_digest elastic_ranks));
  checkb "membership changed" true (Trace.num_reshuffles elastic_trace = 2);
  checki "static runs do not reshuffle" 0 (Trace.num_reshuffles static_trace);
  check_clean "equivalence"
    (Elastic_check.equivalence ~label:"PR pocek" ~executors:4 ~num_partitions:128
       ~baseline:static_trace ~elastic:elastic_trace
       ~baseline_attrs:(Fault_check.float_attrs_digest static_ranks)
       ~elastic_attrs:(Fault_check.float_attrs_digest elastic_ranks) ());
  check_clean "elastic conservation" (Check.Trace_check.validate elastic_trace)

let test_elastic_preserves_values_cc_sssp () =
  let g = graph "roadnet_pa" in
  let check_algo name run_algo =
    let static_attrs, static_trace = run_algo None in
    let elastic_attrs, elastic_trace = run_algo (Some elastic_cfg) in
    checkb (name ^ " values are bit-identical") true (String.equal static_attrs elastic_attrs);
    check_clean (name ^ " equivalence")
      (Elastic_check.equivalence ~label:name ~executors:4 ~baseline:static_trace
         ~elastic:elastic_trace ~baseline_attrs:static_attrs ~elastic_attrs ())
  in
  check_algo "CC" (fun elastic ->
      let what_if = { Cutfit.Pricer.static with elastic } in
      let p = Pipeline.prepare ~what_if ~algorithm:Advisor.Connected_components g in
      let labels, t = Pipeline.connected_components p in
      (Fault_check.int_attrs_digest labels, t));
  check_algo "SSSP" (fun elastic ->
      let what_if = { Cutfit.Pricer.static with elastic } in
      let p = Pipeline.prepare ~what_if ~algorithm:Advisor.Shortest_paths g in
      let d, t = Pipeline.shortest_paths ~landmarks:[| 0; 7 |] p in
      (Fault_check.int_attrs_digest (Array.concat (Array.to_list d)), t))

let test_sanitizer_green_under_elastic () =
  (* The full sanitizer — including the compact-kernel engines suite at
     domains 1, 2 and 4 — stays green when the boxed run is elastic and
     heterogeneous. *)
  let g = graph "pocek" in
  let hetero = Elastic.draw_hetero ~seed:9 ~executors:4 in
  let report =
    Sanitize.check_run ~elastic:elastic_cfg ~hetero ~engine_domains:[ 1; 2; 4 ]
      ~algorithm:Advisor.Pagerank g
  in
  checkb "sanitizer is green" true (Sanitize.ok report);
  checkb "elastic suite ran" true (List.mem_assoc "elastic" report.Sanitize.suites);
  checkb "engines suite ran" true (List.mem_assoc "engines" report.Sanitize.suites)

(* --- workload membership --- *)

let two_tenant_stream ~jobs ~seed =
  Job.generate ~seed ~jobs ~tenants:[ ("acme", 3.0); ("beta", 1.0) ] (Option.get (Job.find_mix "uniform"))

let ring_run ?scale_events ?tenant_weights ?tenant_quota ?fairness ?max_retries ?breaker_k jobs
    ~seed =
  let sink, contents = Cutfit.Sink.ring ~capacity:65536 () in
  let telemetry = Cutfit.Telemetry.create ~sinks:[ sink ] () in
  let r =
    Engine.run ?scale_events ?tenant_weights ?tenant_quota ?fairness ?max_retries ?breaker_k
      ~telemetry ~seed jobs
  in
  Cutfit.Telemetry.close telemetry;
  (r, contents ())

let test_workload_scale_counters () =
  let r, events =
    ring_run ~scale_events:(Elastic.config "leave@5-1,join@9+2") ~seed:7L
      (Job.generate ~seed:7L ~jobs:24 (Option.get (Job.find_mix "uniform")))
  in
  checki "one leave applied" 1 r.Engine.leaves;
  checki "one join applied" 1 r.Engine.joins;
  checki "no preemptions" 0 (Engine.preemptions r);
  checkb "spec recorded canonically" true (r.Engine.scale_spec = Some "leave@5,join@9+2");
  (* Satellite law: a leave invalidates every cached partitioning that
     referenced the departed executor, so no stale-placement hit is ever
     served. *)
  checki "no stale placement hits" 0 r.Engine.stale_placement_hits;
  check_clean "workload report" (Workload_check.report ~events r)

let test_preempt_is_budget_neutral () =
  (* max_retries = 0: an involuntary preemption must still requeue and
     finish — the reclaim consumes no retry budget. *)
  let r, events =
    ring_run ~scale_events:(Elastic.config "preempt@6:r1") ~max_retries:0 ~seed:7L
      (Job.generate ~seed:7L ~jobs:16 (Option.get (Job.find_mix "uniform")))
  in
  checkb "a preemption fired" true (Engine.preemptions r >= 1);
  checki "no job failed" 0 (Engine.failed_jobs r);
  let preempted =
    List.filter (fun (j : Engine.job_record) -> j.Engine.preemptions > 0) r.Engine.records
  in
  checkb "the preempted job retried past its zero budget" true
    (List.exists
       (fun (j : Engine.job_record) ->
         j.Engine.attempts > 1 && j.Engine.outcome = "completed")
       preempted);
  check_clean "preempt report" (Workload_check.report ~events r)

let test_unarmed_run_reports_zero () =
  let r, events = ring_run ~seed:5L (Job.generate ~seed:5L ~jobs:8 (Option.get (Job.find_mix "uniform"))) in
  checkb "no spec recorded" true (r.Engine.scale_spec = None);
  checki "no joins" 0 r.Engine.joins;
  checki "no leaves" 0 r.Engine.leaves;
  checki "no preemptions" 0 (Engine.preemptions r);
  check_clean "static report" (Workload_check.report ~events r)

(* --- multi-tenancy --- *)

let test_fairness_no_violations () =
  let r, events =
    ring_run ~fairness:true
      ~tenant_weights:[ ("acme", 2.0); ("beta", 1.0) ]
      ~seed:7L (two_tenant_stream ~jobs:32 ~seed:7L)
  in
  checkb "fairness was on" true r.Engine.fairness;
  checki "scheduler never violated its own rule" 0 r.Engine.fairness_violations;
  let tenants =
    List.sort_uniq String.compare
      (List.map (fun (j : Engine.job_record) -> j.Engine.job.Job.tenant) r.Engine.records)
  in
  checkb "both tenants ran" true (tenants = [ "acme"; "beta" ]);
  check_clean "fairness report" (Workload_check.report ~events r)

let test_tenant_quota_throttles () =
  (* Six simultaneous arrivals from one tenant against a quota of 1:
     everything beyond the first pending job is shed as "quota". *)
  let jobs =
    List.init 6 (fun i ->
        {
          Job.id = i;
          arrival_s = 0.1 *. float_of_int i;
          tenant = "storm";
          algorithm = Advisor.Pagerank;
          dataset = "pocek";
          num_partitions = 64;
        })
  in
  let r, events = ring_run ~tenant_quota:1 ~seed:11L jobs in
  let sheds =
    List.filter (fun (j : Engine.job_record) -> j.Engine.outcome = "shed") r.Engine.records
  in
  checkb "quota shed at least one job" true (List.length sheds >= 1);
  (* PR-on-pocek jobs end as "max-supersteps": anything the quota let
     through must have actually run. *)
  checkb "some jobs still ran" true
    (List.exists
       (fun (j : Engine.job_record) -> j.Engine.outcome <> "shed")
       r.Engine.records);
  check_clean "quota report" (Workload_check.report ~events r)

let test_breaker_scopes_isolate_tenants () =
  checks "default tenant keeps the bare key" "pocek"
    (Engine.breaker_scope ~tenant:Job.default_tenant ~dataset:"pocek");
  checks "tenants get a namespaced key" "acme/pocek"
    (Engine.breaker_scope ~tenant:"acme" ~dataset:"pocek");
  (* A crash storm over two tenants sharing a dataset: every breaker
     trip carries its owning tenant, and the per-scope state machine
     (enforced by the workload sanitizer) never mixes them. *)
  let jobs =
    List.init 8 (fun i ->
        {
          Job.id = i;
          arrival_s = 0.5 *. float_of_int i;
          tenant = (if i mod 2 = 0 then "acme" else "beta");
          algorithm = Advisor.Pagerank;
          dataset = "pocek";
          num_partitions = 64;
        })
  in
  let faults = Cutfit_bsp.Faults.config ~seed:4 ~max_failures:0 "rand@0.8" in
  let sink, contents = Cutfit.Sink.ring ~capacity:65536 () in
  let telemetry = Cutfit.Telemetry.create ~sinks:[ sink ] () in
  let r =
    Engine.run ~faults ~max_retries:6 ~breaker_k:2 ~breaker_cooldown_s:1.0
      ~selection:Engine.Heuristic ~telemetry ~seed:11L jobs
  in
  Cutfit.Telemetry.close telemetry;
  List.iter
    (fun (t : Engine.breaker_trip) ->
      checkb "trip belongs to a real tenant" true
        (t.Engine.tenant = "acme" || t.Engine.tenant = "beta");
      checks "trip keeps the bare dataset" "pocek" t.Engine.dataset)
    r.Engine.breaker_trips;
  check_clean "breaker-namespace report" (Workload_check.report ~events:(contents ()) r)

let test_tenant_deadline_override () =
  (* A 1-second SLO for one tenant only: its jobs miss, the other
     tenant's jobs are untouched by any deadline. *)
  let r, events =
    ring_run ~seed:7L (two_tenant_stream ~jobs:24 ~seed:7L)
  in
  ignore r;
  ignore events;
  let sink, contents = Cutfit.Sink.ring ~capacity:65536 () in
  let telemetry = Cutfit.Telemetry.create ~sinks:[ sink ] () in
  let r =
    Engine.run
      ~tenant_deadlines:[ ("acme", Engine.Absolute 1.0) ]
      ~telemetry ~seed:7L (two_tenant_stream ~jobs:24 ~seed:7L)
  in
  Cutfit.Telemetry.close telemetry;
  let missed t =
    List.exists
      (fun (j : Engine.job_record) ->
        String.equal j.Engine.job.Job.tenant t && j.Engine.outcome = "deadline")
      r.Engine.records
  in
  checkb "the constrained tenant misses its SLO" true (missed "acme");
  checkb "the unconstrained tenant never misses" true (not (missed "beta"));
  check_clean "tenant-deadline report" (Workload_check.report ~events:(contents ()) r)

(* --- determinism --- *)

let test_elastic_workload_digest_stable () =
  let run () =
    Engine.run
      ~scale_events:(Elastic.config "leave@5-1,join@9+2,preempt@12:r1")
      ~fairness:true
      ~tenant_weights:[ ("acme", 2.0); ("beta", 1.0) ]
      ~seed:7L (two_tenant_stream ~jobs:24 ~seed:7L)
  in
  check_clean "elastic workload digest"
    (Workload_check.run_twice ~label:"elastic two-tenant workload" run);
  checks "digest is reproducible" (Workload_check.digest (run ())) (Workload_check.digest (run ()))

let suite =
  [
    Alcotest.test_case "scale-event spec parses" `Quick test_parse_spec;
    Alcotest.test_case "scale-event spec rejects malformed input" `Quick test_parse_spec_rejects;
    test_to_spec_round_trip;
    Alcotest.test_case "to_spec prints the minimal form" `Quick test_to_spec_minimal;
    Alcotest.test_case "event realization is stateless" `Quick test_events_are_stateless;
    Alcotest.test_case "hetero draws are deterministic and bounded" `Quick test_hetero_draws;
    Alcotest.test_case "elastic PR values match the static baseline" `Quick
      test_elastic_preserves_values_pr;
    Alcotest.test_case "elastic CC/SSSP values match the static baseline" `Quick
      test_elastic_preserves_values_cc_sssp;
    Alcotest.test_case "sanitizer green under elastic + hetero" `Quick
      test_sanitizer_green_under_elastic;
    Alcotest.test_case "workload scale counters and stale placements" `Quick
      test_workload_scale_counters;
    Alcotest.test_case "preemption is budget-neutral" `Quick test_preempt_is_budget_neutral;
    Alcotest.test_case "unarmed runs report zero elastic activity" `Quick
      test_unarmed_run_reports_zero;
    Alcotest.test_case "fairness holds on a two-tenant stream" `Quick test_fairness_no_violations;
    Alcotest.test_case "tenant quota throttles admissions" `Quick test_tenant_quota_throttles;
    Alcotest.test_case "breaker namespaces isolate tenants" `Quick
      test_breaker_scopes_isolate_tenants;
    Alcotest.test_case "tenant deadline overrides apply per tenant" `Quick
      test_tenant_deadline_override;
    Alcotest.test_case "elastic workload digest is stable" `Quick
      test_elastic_workload_digest_stable;
  ]
