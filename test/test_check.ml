(* The sanitizer suites (lib/check) and their wiring: corrupted inputs
   must come back as structured [Violation.t] reports — never assert
   crashes — and intact pipelines must come back clean. *)

module Graph = Cutfit_graph.Graph
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event
module Metrics = Cutfit.Metrics
module Partitioner = Cutfit.Partitioner
module Pipeline = Cutfit.Pipeline
module Check = Cutfit.Check
module Violation = Check.Violation
module Pgraph_check = Check.Pgraph_check
module Metrics_check = Check.Metrics_check
module Trace_check = Check.Trace_check
module Determinism = Check.Determinism
module Clock = Cutfit.Clock
module Metric = Cutfit_obs.Metric

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_clean what vs = Alcotest.(check int) (what ^ " is clean") 0 (List.length vs)

let has_rule rule vs = List.exists (fun v -> v.Violation.rule = rule) vs

let check_rule what rule vs =
  checkb (Printf.sprintf "%s reports %s" what rule) true (has_rule rule vs)

let g = Test_util.random_graph ~seed:77L ~n:200 ~m:1400
let cluster = Test_util.tiny_cluster ()
let np = cluster.Cutfit_bsp.Cluster.num_partitions
let assignment = Partitioner.assign (Partitioner.Hash Cutfit.Strategy.Two_d) ~num_partitions:np g
let pg = Pgraph.build g ~num_partitions:np assignment

(* --- malformed assignments: structured reports, no exceptions --- *)

let test_assignment_out_of_range () =
  let bad = Array.copy assignment in
  bad.(3) <- np + 5;
  bad.(7) <- -1;
  let vs = Pgraph_check.assignment g ~num_partitions:np bad in
  check_rule "out-of-range pid" "assignment-range" vs;
  checkb "every violation names the pgraph suite" true
    (List.for_all (fun v -> v.Violation.suite = "pgraph") vs)

let test_assignment_wrong_length () =
  let vs = Pgraph_check.assignment g ~num_partitions:np (Array.make 3 0) in
  check_rule "truncated assignment" "assignment-length" vs

let test_assignment_bad_np () =
  check_rule "zero partitions" "num-partitions" (Pgraph_check.assignment g ~num_partitions:0 assignment)

let test_metrics_validate_never_raises () =
  (* Metrics.compute itself raises on this input; the checker must not. *)
  let vs = Metrics_check.validate g ~num_partitions:np (Array.make 3 0) (Pgraph.metrics pg) in
  check_rule "malformed assignment via metrics checker" "assignment-length" vs

(* --- corrupted Pgraph structure, via view-accessor wrapping --- *)

let test_pgraph_clean () = check_clean "intact pgraph" (Pgraph_check.validate pg)

let corrupt f =
  let view = Pgraph_check.view_of_pgraph pg in
  Pgraph_check.validate_view (f view)

let test_view_edge_coverage () =
  (* Partition 0 claims the edges of partition 1: the edges assigned to 0
     vanish and partition 1's appear under the wrong owner. *)
  let vs =
    corrupt (fun v ->
        { v with Pgraph_check.edges_of_partition = (fun p -> v.Pgraph_check.edges_of_partition (if p = 0 then 1 else p)) })
  in
  check_rule "swapped edge lists" "edge-coverage" vs

let test_view_unsorted_replicas () =
  let vs =
    corrupt (fun v ->
        {
          v with
          Pgraph_check.replicas =
            (fun vtx ->
              let r = v.Pgraph_check.replicas vtx in
              if Array.length r > 1 then begin
                let r = Array.copy r in
                let t = r.(0) in
                r.(0) <- r.(Array.length r - 1);
                r.(Array.length r - 1) <- t;
                r
              end
              else r);
        })
  in
  check_rule "reversed replica list" "replicas" vs

let test_view_total_replicas () =
  let vs = corrupt (fun v -> { v with Pgraph_check.total_replicas = v.Pgraph_check.total_replicas + 1 }) in
  check_rule "off-by-one replica total" "total-replicas" vs

let test_view_master_identity () =
  let vs =
    corrupt (fun v ->
        { v with Pgraph_check.master = (fun vtx -> (vtx + 1) mod v.Pgraph_check.num_partitions) })
  in
  check_rule "rotated master map" "master-identity" vs

let test_view_local_vertices () =
  let vs =
    corrupt (fun v ->
        { v with Pgraph_check.local_vertices = (fun p -> v.Pgraph_check.local_vertices p + 2) })
  in
  check_rule "inflated local vertex tables" "local-vertices" vs

let test_view_reports_are_capped () =
  (* A corruption touching every vertex must yield a bounded report, not
     one violation per vertex. *)
  let vs = corrupt (fun v -> { v with Pgraph_check.master = (fun _ -> 0) }) in
  checkb "capped" true (List.length vs <= 10)

(* --- word boundaries of the checker's presence bitset --- *)

(* The checker packs 63 partitions per word: partitions 62 | 63 and
   125 | 126 straddle word boundaries at P = 128, and 252-255 open the
   last word at P = 256. Each corruption there must surface under its
   own rule. *)
let wide_graph = Test_util.random_graph ~seed:91L ~n:300 ~m:6000

let wide_pg num_partitions =
  let a =
    Partitioner.assign (Partitioner.Hash Cutfit.Strategy.Rvc) ~num_partitions wide_graph
  in
  Pgraph.build wide_graph ~num_partitions a

let test_word_boundaries () =
  List.iter
    (fun (num_partitions, targets) ->
      let pg = wide_pg num_partitions in
      let view = Pgraph_check.view_of_pgraph pg in
      check_clean (Printf.sprintf "intact pgraph at P = %d" num_partitions) (Pgraph_check.validate_view view);
      List.iter
        (fun target ->
          let what = Printf.sprintf "P = %d, partition %d" num_partitions target in
          let locals =
            Pgraph_check.validate_view
              {
                view with
                Pgraph_check.local_vertices =
                  (fun p -> view.Pgraph_check.local_vertices p + if p = target then 1 else 0);
              }
          in
          checkb (what ^ ": one local-vertices report") true
            (match locals with [ v ] -> v.Violation.rule = "local-vertices" | _ -> false);
          let holder =
            let n = Graph.num_vertices wide_graph in
            let rec find v =
              if v = n then Alcotest.failf "%s: no vertex is present there" what
              else if Array.mem target (Pgraph.replicas pg v) then v
              else find (v + 1)
            in
            find 0
          in
          let dropped =
            Pgraph_check.validate_view
              {
                view with
                Pgraph_check.replicas =
                  (fun v ->
                    let r = view.Pgraph_check.replicas v in
                    if v = holder then Array.of_list (List.filter (( <> ) target) (Array.to_list r))
                    else r);
              }
          in
          check_rule (what ^ ": dropped replica") "replicas" dropped;
          checkb (what ^ ": the report names the vertex") true
            (List.exists
               (fun v ->
                 v.Violation.rule = "replicas"
                 && String.starts_with ~prefix:(Printf.sprintf "vertex %d:" holder) v.Violation.detail)
               dropped))
        targets)
    [ (128, [ 62; 63; 125; 126 ]); (256, [ 252; 253; 254; 255 ]) ]

(* --- metrics identity and recomputation --- *)

let metrics = Pgraph.metrics pg

let test_metrics_clean () =
  check_clean "validate on computed metrics" (Metrics_check.validate g ~num_partitions:np assignment metrics)

let test_metrics_identity_violation () =
  (* Breaking §3.1: comm_cost + non_cut <> vertices_to_same + vertices_to_other. *)
  let broken = { metrics with Metrics.vertices_to_other = metrics.Metrics.vertices_to_other + 1 } in
  check_rule "broken replica identity" "replica-identity"
    (Metrics_check.validate g ~num_partitions:np assignment broken)

let test_metrics_comm_cost_floor () =
  let broken = { metrics with Metrics.comm_cost = 0; vertices_to_same = 0; vertices_to_other = metrics.Metrics.non_cut } in
  check_rule "comm_cost below 2*cut" "comm-cost-floor" (Metrics_check.validate g ~num_partitions:np assignment broken)

let test_metrics_negative_count () =
  let broken = { metrics with Metrics.cut = -1 } in
  check_rule "negative cut" "negative-count" (Metrics_check.validate g ~num_partitions:np assignment broken)

let test_metrics_recomputation () =
  (* Identity still holds, but the numbers are not this graph's. *)
  let broken =
    {
      metrics with
      Metrics.comm_cost = metrics.Metrics.comm_cost + 2;
      vertices_to_same = metrics.Metrics.vertices_to_same + 2;
    }
  in
  let vs = Metrics_check.validate g ~num_partitions:np assignment broken in
  checkb "the identity rules cannot see it" false
    (List.exists (fun r -> has_rule r vs) [ "replica-identity"; "comm-cost-floor"; "negative-count" ]);
  check_rule "recomputation catches it" "comm-cost" vs

(* --- trace conservation laws --- *)

let run_pagerank () =
  let p = Pipeline.prepare ~cluster ~partitioner:(Partitioner.Hash Cutfit.Strategy.Two_d) ~algorithm:Cutfit.Advisor.Pagerank g in
  snd (Pipeline.pagerank p)

let trace = run_pagerank ()

let test_trace_clean () = check_clean "intact trace" (Trace_check.validate trace)

let with_first_compute_step f t =
  {
    t with
    Trace.supersteps =
      List.map (fun (s : Trace.superstep) -> if s.Event.step = 0 then f s else s) t.Trace.supersteps;
  }

let test_trace_time_decomposition () =
  let broken = with_first_compute_step (fun s -> { s with Event.time_s = s.Event.time_s +. 0.25 }) trace in
  check_rule "padded superstep time" "time-decomposition" (Trace_check.validate broken);
  check_rule "total no longer folds" "total-time" (Trace_check.validate broken)

let test_trace_conservation () =
  let broken = with_first_compute_step (fun s -> { s with Event.remote_shuffles = s.Event.shuffle_groups + 1 }) trace in
  check_rule "more remote than total" "shuffle-conservation" (Trace_check.validate broken)

let test_trace_negative_counter () =
  let broken = with_first_compute_step (fun s -> { s with Event.messages = -4 }) trace in
  check_rule "negative messages" "negative-count" (Trace_check.validate broken)

let test_trace_checkpoint_time () =
  let broken = { trace with Trace.checkpoints = 0; checkpoint_s = 1.0; total_s = trace.Trace.total_s +. 1.0 -. trace.Trace.checkpoint_s } in
  check_rule "phantom checkpoint seconds" "checkpoint-time" (Trace_check.validate broken)

(* --- telemetry reconciliation: each defect fires its named rule --- *)

(* A checkpointed run that carries every itemized record kind, with the
   schedule of test_obs.ml's "events share trace records": a crash, a
   straggler whose clone races, one leave and one join. *)
let observed_run () =
  let sink, contents = Cutfit.Sink.collect () in
  let t = Cutfit.Telemetry.create ~sinks:[ sink ] () in
  let p =
    Pipeline.prepare ~cluster ~partitioner:(Partitioner.Hash Cutfit.Strategy.Two_d)
      ~what_if:
        {
          Cutfit.Pricer.static with
          checkpoint_every = Some 2;
          faults = Some (Cutfit.Faults.config ~seed:42 "crash@2,straggler@3-4:x20");
          speculation = Some (Cutfit.Speculation.config ~seed:42 ());
          elastic = Some (Cutfit.Elastic.config ~seed:42 "leave@4-1,join@5+1");
        }
      ~telemetry:t ~algorithm:Cutfit.Advisor.Pagerank g
  in
  let trace = snd (Pipeline.pagerank p) in
  Cutfit.Telemetry.close t;
  (trace, contents ())

let drop_first is events =
  let rec go = function [] -> [] | e :: rest -> if is e then rest else e :: go rest in
  go events

let test_reconcile_defects () =
  let trace, events = observed_run () in
  List.iter
    (fun (what, n) -> checkb (what ^ " recorded") true (n > 0))
    [
      ("checkpoints", trace.Trace.checkpoints);
      ("recoveries", Trace.num_recoveries trace);
      ("clones", Trace.num_speculations trace);
      ("reshuffles", Trace.num_reshuffles trace);
    ];
  check_clean "intact event stream" (Trace_check.reconcile trace events);
  List.iter
    (fun (what, rule, defect) -> check_rule what rule (Trace_check.reconcile trace (defect events)))
    [
      ( "second run_end",
        "run-end",
        fun events -> events @ List.filter (function Event.Run_end _ -> true | _ -> false) events );
      ( "dropped superstep",
        "event-count",
        drop_first (function Event.Superstep _ -> true | _ -> false) );
      ( "dropped checkpoint",
        "checkpoint-events",
        drop_first (function Event.Checkpoint _ -> true | _ -> false) );
      ( "dropped fault",
        "fault-events",
        drop_first (function Event.Fault_injected _ -> true | _ -> false) );
      ( "dropped recovery",
        "recovery-events",
        drop_first (function Event.Recovery _ -> true | _ -> false) );
      ( "dropped clone launch",
        "speculation-events",
        drop_first (function Event.Speculative_launch _ -> true | _ -> false) );
      ( "dropped reshuffle",
        "reshuffle-events",
        drop_first (function Event.Reshuffle _ -> true | _ -> false) );
      ( "dropped join",
        "scale-events",
        drop_first (function Event.Executor_join _ -> true | _ -> false) );
    ]

(* --- determinism digests --- *)

let test_digest_stability () =
  let t1 = run_pagerank () and t2 = run_pagerank () in
  Alcotest.(check string) "identical runs digest identically" (Determinism.trace_digest t1)
    (Determinism.trace_digest t2);
  checkb "digest is hex md5" true (String.length (Determinism.trace_digest t1) = 32)

let test_digest_sensitivity () =
  let broken = with_first_compute_step (fun s -> { s with Event.messages = s.Event.messages + 1 }) trace in
  checkb "one counter flips the digest" true
    (Determinism.trace_digest broken <> Determinism.trace_digest trace)

let test_run_twice () =
  check_clean "deterministic thunk" (Determinism.run_twice ~label:"pr" (fun () -> Determinism.trace_digest (run_pagerank ())));
  let flip = ref false in
  let vs =
    Determinism.run_twice ~label:"flaky" (fun () ->
        flip := not !flip;
        if !flip then "a" else "b")
  in
  check_rule "diverging thunk" "divergence" vs

let test_replay () =
  let run () = Determinism.trace_digest (run_pagerank ()) in
  check_clean "identical replay" (Determinism.replay ~label:"pr" ~first:(run ()) run);
  let broken = with_first_compute_step (fun s -> { s with Event.messages = s.Event.messages + 1 }) trace in
  let vs = Determinism.replay ~label:"pr" ~first:(Determinism.trace_digest broken) run in
  check_rule "replay against a different first digest" "divergence" vs;
  checkb "every violation names the determinism suite" true
    (List.for_all (fun v -> v.Violation.suite = "determinism") vs)

(* --- full-pipeline sanitizer --- *)

(* Every algorithm's table entry (its run, payload and value digest)
   passes the five default suites. *)
let test_check_run () =
  List.iter
    (fun algorithm ->
      let name = Cutfit.Advisor.algorithm_name algorithm in
      let report = Cutfit.Sanitize.check_run ~cluster ~algorithm g in
      checkb (name ^ " report ok") true (Cutfit.Sanitize.ok report);
      checki (name ^ " five suites") 5 (List.length report.Cutfit.Sanitize.suites);
      List.iter
        (fun (suite, n) -> checki (name ^ " " ^ suite ^ " count") 0 n)
        report.Cutfit.Sanitize.suites;
      checki (name ^ " no violations") 0 (List.length report.Cutfit.Sanitize.violations))
    Cutfit.Advisor.
      [ Pagerank; Connected_components; Triangle_count; Shortest_paths ]

let test_pipeline_check_flag () =
  let p = Pipeline.prepare ~check:true ~cluster ~algorithm:Cutfit.Advisor.Connected_components g in
  (* a valid graph passes the paranoid build, and its sanitized layout
     stays clean *)
  check_clean "pgraph after paranoid prepare" (Pgraph_check.validate p.Pipeline.pg)

(* --- injectable clock --- *)

let test_clock_counter () =
  let c = Clock.counter ~start:10.0 ~step:0.5 () in
  Alcotest.(check (float 0.0)) "first read" 10.0 (c ());
  Alcotest.(check (float 0.0)) "second read" 10.5 (c ())

let test_metric_time_with_clock () =
  let reg = Metric.create_registry () in
  let t = Metric.timer reg "span" in
  let result = Metric.time ~clock:(Clock.counter ~step:2.0 ()) t (fun () -> 42) in
  checki "thunk result" 42 result;
  let total () = List.assoc "span" (Metric.snapshot reg) in
  Alcotest.(check (float 1e-12)) "span is exactly one step" 2.0 (total ());
  Metric.time ~clock:(Clock.fixed 5.0) t (fun () -> ());
  Alcotest.(check (float 1e-12)) "fixed clock measures zero" 2.0 (total ())

let suite =
  [
    Alcotest.test_case "assignment: out-of-range" `Quick test_assignment_out_of_range;
    Alcotest.test_case "assignment: wrong length" `Quick test_assignment_wrong_length;
    Alcotest.test_case "assignment: bad num_partitions" `Quick test_assignment_bad_np;
    Alcotest.test_case "metrics checker never raises" `Quick test_metrics_validate_never_raises;
    Alcotest.test_case "pgraph: clean" `Quick test_pgraph_clean;
    Alcotest.test_case "pgraph: edge coverage" `Quick test_view_edge_coverage;
    Alcotest.test_case "pgraph: unsorted replicas" `Quick test_view_unsorted_replicas;
    Alcotest.test_case "pgraph: total replicas" `Quick test_view_total_replicas;
    Alcotest.test_case "pgraph: master identity" `Quick test_view_master_identity;
    Alcotest.test_case "pgraph: local vertices" `Quick test_view_local_vertices;
    Alcotest.test_case "pgraph: capped reports" `Quick test_view_reports_are_capped;
    Alcotest.test_case "pgraph: bitset word boundaries" `Quick test_word_boundaries;
    Alcotest.test_case "metrics: clean" `Quick test_metrics_clean;
    Alcotest.test_case "metrics: replica identity" `Quick test_metrics_identity_violation;
    Alcotest.test_case "metrics: comm-cost floor" `Quick test_metrics_comm_cost_floor;
    Alcotest.test_case "metrics: negative count" `Quick test_metrics_negative_count;
    Alcotest.test_case "metrics: recomputation" `Quick test_metrics_recomputation;
    Alcotest.test_case "trace: clean" `Quick test_trace_clean;
    Alcotest.test_case "trace: time decomposition" `Quick test_trace_time_decomposition;
    Alcotest.test_case "trace: conservation" `Quick test_trace_conservation;
    Alcotest.test_case "trace: negative counter" `Quick test_trace_negative_counter;
    Alcotest.test_case "trace: checkpoint time" `Quick test_trace_checkpoint_time;
    Alcotest.test_case "reconcile: each defect fires its rule" `Quick test_reconcile_defects;
    Alcotest.test_case "determinism: digest stability" `Quick test_digest_stability;
    Alcotest.test_case "determinism: digest sensitivity" `Quick test_digest_sensitivity;
    Alcotest.test_case "determinism: run twice" `Quick test_run_twice;
    Alcotest.test_case "determinism: replay" `Quick test_replay;
    Alcotest.test_case "sanitize: full pipeline" `Quick test_check_run;
    Alcotest.test_case "pipeline: ?check flag" `Quick test_pipeline_check_flag;
    Alcotest.test_case "clock: counter" `Quick test_clock_counter;
    Alcotest.test_case "metric: injected clock" `Quick test_metric_time_with_clock;
  ]
