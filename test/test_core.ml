module Advisor = Cutfit.Advisor
module Pipeline = Cutfit.Pipeline
module Strategy = Cutfit.Strategy
module Partitioner = Cutfit.Partitioner
module Metrics = Cutfit.Metrics
module Trace = Cutfit.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let g = Test_util.random_graph ~seed:123L ~n:400 ~m:3000
let cluster = Test_util.tiny_cluster ()

let all_algorithms =
  [ Advisor.Pagerank; Advisor.Connected_components; Advisor.Triangle_count; Advisor.Shortest_paths ]

(* --- Advisor --- *)

let test_predictive_metric () =
  Alcotest.(check string) "PR" "CommCost" (Advisor.predictive_metric Advisor.Pagerank);
  Alcotest.(check string) "CC" "CommCost" (Advisor.predictive_metric Advisor.Connected_components);
  Alcotest.(check string) "TR" "Cut" (Advisor.predictive_metric Advisor.Triangle_count);
  Alcotest.(check string) "SSSP" "CommCost" (Advisor.predictive_metric Advisor.Shortest_paths)

let test_classify () =
  checkb "follow-scale is large" true (Advisor.classify ~paper_scale_edges:2.0e8 = Advisor.Large);
  checkb "pocek-scale is small" true (Advisor.classify ~paper_scale_edges:3.0e7 = Advisor.Small)

let test_heuristic_rules () =
  checkb "PR large -> 2D" true
    (Advisor.heuristic Advisor.Pagerank ~size:Advisor.Large ~num_partitions:128 = Strategy.Two_d);
  checkb "PR small -> DC" true
    (Advisor.heuristic Advisor.Pagerank ~size:Advisor.Small ~num_partitions:128 = Strategy.Dc);
  checkb "CC small coarse -> 1D" true
    (Advisor.heuristic Advisor.Connected_components ~size:Advisor.Small ~num_partitions:128
    = Strategy.One_d);
  checkb "CC small fine -> 2D" true
    (Advisor.heuristic Advisor.Connected_components ~size:Advisor.Small ~num_partitions:256
    = Strategy.Two_d);
  checkb "TR -> CRVC" true
    (Advisor.heuristic Advisor.Triangle_count ~size:Advisor.Large ~num_partitions:128
    = Strategy.Crvc)

let test_measure_ranking () =
  let ranked = Advisor.measure Advisor.Pagerank ~num_partitions:16 g in
  checki "six candidates" 6 (List.length ranked);
  let scores = List.map (fun r -> r.Advisor.score) ranked in
  checkb "ascending" true (List.sort compare scores = scores);
  (* The winner really does minimize CommCost among the six. *)
  let best = List.hd ranked in
  List.iter
    (fun r -> checkb "winner minimal" true (best.Advisor.score <= r.Advisor.score))
    ranked

let test_measure_respects_metric () =
  let pr = List.hd (Advisor.measure Advisor.Pagerank ~num_partitions:16 g) in
  checkb "PR score is CommCost" true
    (pr.Advisor.score = float_of_int pr.Advisor.metrics.Metrics.comm_cost);
  let tr = List.hd (Advisor.measure Advisor.Triangle_count ~num_partitions:16 g) in
  checkb "TR score is Cut" true (tr.Advisor.score = float_of_int tr.Advisor.metrics.Metrics.cut)

let test_advise_small_measures () =
  let s = Advisor.advise Advisor.Pagerank ~scale:1.0 ~num_partitions:16 g in
  let best = List.hd (Advisor.measure Advisor.Pagerank ~num_partitions:16 g) in
  checkb "advise = measured best" true (s = best.Advisor.strategy)

let test_advise_large_uses_heuristic () =
  let s =
    Advisor.advise ~measure_threshold_edges:1 Advisor.Pagerank ~scale:1.0e5 ~num_partitions:128 g
  in
  checkb "falls back to heuristic (large)" true (s = Strategy.Two_d)

let test_predicted_exec_monotone () =
  (* predicted_exec_s is monotone in the predictive metric: the measured
     winner can never be predicted slower than the measured loser. *)
  let ranked = Advisor.measure Advisor.Pagerank ~num_partitions:16 g in
  let predict (r : Advisor.ranked) =
    Advisor.predicted_exec_s Advisor.Pagerank g r.Advisor.metrics
  in
  let preds = List.map predict ranked in
  checkb "predictions follow the ranking" true (List.sort compare preds = preds)

let test_algorithm_strings () =
  List.iter
    (fun a ->
      match Advisor.algorithm_of_string (Advisor.algorithm_name a) with
      | Some a' -> checkb "roundtrip" true (a = a')
      | None -> Alcotest.fail "parse failed")
    all_algorithms

(* --- Pipeline --- *)

let test_pipeline_pagerank () =
  let p = Pipeline.prepare ~cluster ~algorithm:Advisor.Pagerank g in
  let ranks, trace = Pipeline.pagerank ~iterations:5 p in
  let expected = Cutfit.Pagerank.reference ~iterations:5 g in
  checkb "matches reference" true
    (Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) ranks expected);
  checkb "trace completed" true (Trace.completed trace)

let test_pipeline_cc () =
  let p = Pipeline.prepare ~cluster ~algorithm:Advisor.Connected_components g in
  let labels, _ = Pipeline.connected_components ~iterations:100 p in
  Alcotest.(check (array int)) "labels" (Cutfit.Connected_components.reference g) labels

let test_pipeline_triangles () =
  let p = Pipeline.prepare ~cluster ~algorithm:Advisor.Triangle_count g in
  let per_vertex, _ = Pipeline.triangles p in
  checki "total" (Cutfit.Triangles.count g) (Array.fold_left ( + ) 0 per_vertex / 3)

let test_pipeline_sssp () =
  let p = Pipeline.prepare ~cluster ~algorithm:Advisor.Shortest_paths g in
  let d, _ = Pipeline.shortest_paths ~landmarks:[| 0 |] p in
  checkb "matches BFS" true (d = Cutfit.Sssp.reference g ~landmarks:[| 0 |])

let test_pipeline_explicit_partitioner () =
  let p =
    Pipeline.prepare ~cluster ~partitioner:(Partitioner.Hash Strategy.Sc)
      ~algorithm:Advisor.Pagerank g
  in
  Alcotest.(check string) "kept" "SC" (Partitioner.name p.Pipeline.partitioner)

let test_pipeline_metrics () =
  let p = Pipeline.prepare ~cluster ~algorithm:Advisor.Pagerank g in
  let m = Pipeline.metrics p in
  checki "edges preserved" (Cutfit.Graph.num_edges g)
    (Array.fold_left ( + ) 0 m.Metrics.edges_per_partition)

let test_compare_partitioners () =
  let times = Pipeline.compare_partitioners ~cluster ~algorithm:Advisor.Pagerank g in
  checki "six entries" 6 (List.length times);
  let ts = List.map snd times in
  checkb "ascending" true (List.sort compare ts = ts);
  checkb "all completed" true (List.for_all (fun t -> not (Float.is_nan t)) ts)

(* --- the algorithm table --- *)

(* The CLI prints both engines' values through the entry's one summary:
   the boxed run's line must equal the compact kernel's. *)
let test_table_summary () =
  List.iter
    (fun algorithm ->
      let (Pipeline.Algo a) =
        Pipeline.algo ~landmarks:(lazy (Pipeline.default_landmarks g)) algorithm
      in
      let p = Pipeline.prepare ~cluster ~algorithm g in
      let values, trace = a.Pipeline.run p in
      let name = Advisor.algorithm_name algorithm in
      checkb (name ^ " completed") true (Trace.completed trace);
      let kernel = a.Pipeline.kernel.Cutfit.Check.Kernel_check.csr in
      let compact = kernel ~domains:2 (Cutfit.Csr.build p.Pipeline.pg) in
      Alcotest.(check string) name (a.Pipeline.summary values) (a.Pipeline.summary compact))
    all_algorithms

let suite =
  [
    Alcotest.test_case "predictive metric" `Quick test_predictive_metric;
    Alcotest.test_case "classify" `Quick test_classify;
    Alcotest.test_case "heuristic rules" `Quick test_heuristic_rules;
    Alcotest.test_case "measure ranking" `Quick test_measure_ranking;
    Alcotest.test_case "measure respects metric" `Quick test_measure_respects_metric;
    Alcotest.test_case "advise small measures" `Quick test_advise_small_measures;
    Alcotest.test_case "advise large heuristic" `Quick test_advise_large_uses_heuristic;
    Alcotest.test_case "predicted exec monotone" `Quick test_predicted_exec_monotone;
    Alcotest.test_case "algorithm strings" `Quick test_algorithm_strings;
    Alcotest.test_case "pipeline pagerank" `Quick test_pipeline_pagerank;
    Alcotest.test_case "pipeline cc" `Quick test_pipeline_cc;
    Alcotest.test_case "pipeline triangles" `Quick test_pipeline_triangles;
    Alcotest.test_case "pipeline sssp" `Quick test_pipeline_sssp;
    Alcotest.test_case "pipeline explicit partitioner" `Quick test_pipeline_explicit_partitioner;
    Alcotest.test_case "pipeline metrics" `Quick test_pipeline_metrics;
    Alcotest.test_case "compare partitioners" `Quick test_compare_partitioners;
    Alcotest.test_case "table summary boxed = csr" `Quick test_table_summary;
  ]

(* --- the one-sweep measurement against the two-step definition --- *)

(* The advisor's ranking as first defined: assign each candidate, then
   compute its metrics from the assignment, then rank. *)
let two_step_measure algo ~num_partitions g =
  let metric = Advisor.predictive_metric algo in
  List.map
    (fun strategy ->
      let a = Partitioner.assign (Partitioner.Hash strategy) ~num_partitions g in
      let metrics = Metrics.compute g ~num_partitions a in
      { Advisor.strategy; metrics; score = Metrics.metric_value metrics metric })
    Strategy.all
  |> List.sort (fun (a : Advisor.ranked) b ->
         let c = compare a.score b.score in
         if c <> 0 then c else compare a.metrics.Metrics.balance b.metrics.Metrics.balance)

let test_measure_matches_two_step () =
  List.iter
    (fun name ->
      let g = Cutfit.Datasets.generate (Cutfit.Datasets.find name) in
      List.iter
        (fun num_partitions ->
          List.iter
            (fun algo ->
              checkb
                (Printf.sprintf "%s P=%d %s" name num_partitions (Advisor.algorithm_name algo))
                true
                (Advisor.measure algo ~num_partitions g = two_step_measure algo ~num_partitions g))
            [ Advisor.Pagerank; Advisor.Triangle_count ])
        [ 64; 128; 256 ])
    [ "youtube"; "roadnet_pa"; "roadnet_ca" ]

let suite =
  suite
  @ [ Alcotest.test_case "measure = two-step ranking on analogues" `Quick test_measure_matches_two_step ]
