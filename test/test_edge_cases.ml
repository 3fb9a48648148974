(* Edge cases and failure injection across the stack: empty graphs,
   single vertices, self-contained islands, degenerate partition counts,
   and the infra experiment machinery. *)

module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let empty = Test_util.graph_of_edges ~n:5 []
let singleton = Test_util.graph_of_edges ~n:1 []
let self_loop = Graph.create ~n:2 ~src:[| 0; 0 |] ~dst:[| 0; 1 |]
let cluster = Test_util.tiny_cluster ()

let test_empty_graph_basics () =
  checki "no edges" 0 (Graph.num_edges empty);
  checki "degree" 0 (Graph.out_degree empty 3);
  checkb "symmetric trivially" true (Test_util.is_symmetric empty);
  checki "five components" 5 (Cutfit_graph.Components.weak_count empty);
  checki "no triangles" 0 (Cutfit_graph.Triangles.count empty)

let test_empty_graph_metrics () =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:4 empty in
  let m = Metrics.compute empty ~num_partitions:4 a in
  checki "no cut" 0 m.Metrics.cut;
  checki "no non-cut (no vertex touches an edge)" 0 m.Metrics.non_cut;
  checkb "balance defined" true (m.Metrics.balance = 1.0)

let test_empty_graph_pregel () =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:8 empty in
  let pg = Pgraph.build empty ~num_partitions:8 a in
  let r = Cutfit_algo.Connected_components.run ~cluster pg in
  (* Every vertex is its own component; no messages ever flow. *)
  Alcotest.(check (array int)) "own labels" [| 0; 1; 2; 3; 4 |]
    r.Cutfit_algo.Connected_components.labels;
  checkb "completed" true (Trace.completed r.Cutfit_algo.Connected_components.trace)

let test_singleton_pagerank () =
  let a = [||] in
  let pg = Pgraph.build singleton ~num_partitions:8 a in
  let r = Cutfit_algo.Pagerank.run ~cluster pg in
  checkb "rank stays initial" true (abs_float (r.Cutfit_algo.Pagerank.ranks.(0) -. 1.0) < 1e-12)

let test_self_loop_handling () =
  (* Self-loops survive Graph.create (only dedup drops them); triangles
     and CC must not be confused by them. *)
  checki "two edges" 2 (Graph.num_edges self_loop);
  checki "no triangles" 0 (Cutfit_graph.Triangles.count self_loop);
  checki "one component" 1 (Cutfit_graph.Components.weak_count self_loop)

let test_single_partition_run () =
  let g = Test_util.random_graph ~seed:7L ~n:50 ~m:200 in
  let cluster1 = Test_util.tiny_cluster ~num_partitions:1 () in
  let pg = Pgraph.build g ~num_partitions:1 (Array.make (Graph.num_edges g) 0) in
  let r = Cutfit_algo.Connected_components.run ~iterations:100 ~cluster:cluster1 pg in
  Alcotest.(check (array int)) "still correct" (Cutfit_algo.Connected_components.reference g)
    r.Cutfit_algo.Connected_components.labels

let test_more_partitions_than_edges () =
  let g = Test_util.graph_of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let cluster = Test_util.tiny_cluster ~num_partitions:8 () in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Crvc) ~num_partitions:8 g in
  let pg = Pgraph.build g ~num_partitions:8 a in
  let r = Cutfit_algo.Pagerank.run ~cluster pg in
  checkb "runs" true (Trace.completed r.Cutfit_algo.Pagerank.trace
                      || r.Cutfit_algo.Pagerank.trace.Trace.outcome = Trace.Max_supersteps)

let test_two_d_rectangle_covers_all () =
  (* Non-perfect-square counts use GraphX's rectangle scheme; every
     produced index must be in range and (for enough edges) the spread
     must touch many partitions. *)
  List.iter
    (fun num_partitions ->
      let used = Array.make num_partitions false in
      for src = 0 to 200 do
        for dst = 0 to 30 do
          let p = Strategy.edge_partition Strategy.Two_d ~num_partitions ~src ~dst in
          checkb "in range" true (p >= 0 && p < num_partitions);
          used.(p) <- true
        done
      done;
      let count = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
      checkb "most partitions used" true (count > num_partitions / 2))
    [ 2; 3; 5; 12; 128 ]

let test_two_d_perfect_square_bound () =
  (* On a perfect square, a vertex appears in at most 2*sqrt(N)
     partitions. *)
  let g = Test_util.random_graph ~seed:3L ~n:100 ~m:4000 in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Two_d) ~num_partitions:64 g in
  let replicas = Metrics.replica_count g ~num_partitions:64 a in
  Array.iter (fun r -> checkb "<= 16" true (r <= 16)) replicas

let test_streaming_on_empty () =
  let a = Cutfit_partition.Streaming.assign Cutfit_partition.Streaming.Greedy ~num_partitions:4 empty in
  checki "empty assignment" 0 (Array.length a)

let test_infra_experiment_shape () =
  (* The infra experiment on a small dataset: (iii) and (iv) must not be
     slower than (ii), and (iv) at least as good as (iii). *)
  let results = Cutfit_experiments.Infra.run ~dataset:"youtube" () in
  checki "six partitioners" 6 (List.length results);
  List.iter
    (fun r ->
      checkb "iii not slower" true
        (r.Cutfit_experiments.Infra.time_iii <= r.Cutfit_experiments.Infra.time_ii +. 1e-9);
      checkb "iv not slower than iii" true
        (r.Cutfit_experiments.Infra.time_iv <= r.Cutfit_experiments.Infra.time_iii +. 1e-9);
      checkb "gains nonnegative" true (r.Cutfit_experiments.Infra.gain_iii_pct >= -1e-9))
    results

let test_sssp_landmark_on_island () =
  (* A landmark in a 2-vertex island: only the island learns distances;
     termination must still be immediate-ish. *)
  let g = Test_util.graph_of_edges ~n:6 [ (0, 1); (1, 2); (4, 5); (5, 4) ] in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:8 g in
  let pg = Pgraph.build g ~num_partitions:8 a in
  let r = Cutfit_algo.Sssp.run ~cluster ~landmarks:[| 4 |] pg in
  checki "island partner" 1 r.Cutfit_algo.Sssp.distances.(5).(0);
  checki "mainland unreachable" max_int r.Cutfit_algo.Sssp.distances.(0).(0);
  checkb "completed fast" true (Trace.num_supersteps r.Cutfit_algo.Sssp.trace < 10)

let test_pregel_both_directions_emit () =
  (* A program emitting to both endpoints per edge: degree counting. *)
  let g = Test_util.graph_of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:8 g in
  let pg = Pgraph.build g ~num_partitions:8 a in
  let program =
    {
      Test_util.init = (fun _ -> 0);
      initial_msg = 0;
      vprog = (fun _ acc m -> acc + m);
      send =
        (fun ~src:_ ~dst:_ ~src_attr ~dst_attr ~emit ->
          (* Only fire on the first round (attrs still zero). *)
          if src_attr = 0 || dst_attr = 0 then begin
            emit Cutfit_bsp.Pregel.To_src 1;
            emit Cutfit_bsp.Pregel.To_dst 1
          end);
      merge = ( + );
      state_bytes = 8;
      msg_bytes = 8;
    }
  in
  let r = Test_util.run_boxed ~max_supersteps:1 ~cluster pg program in
  (* After one round each vertex holds its undirected degree. *)
  Alcotest.(check (array int)) "degrees" [| 2; 2; 2; 1; 1 |] r.Test_util.attrs

let test_report_pct () =
  Alcotest.(check string) "pct" "95.3%" (Cutfit_experiments.Report.pct 95.3)

let test_diameter_singleton () =
  checkb "zero" true (Cutfit_graph.Diameter.exact singleton = Cutfit_graph.Diameter.Finite 0)

let suite =
  [
    Alcotest.test_case "empty graph basics" `Quick test_empty_graph_basics;
    Alcotest.test_case "empty graph metrics" `Quick test_empty_graph_metrics;
    Alcotest.test_case "empty graph pregel" `Quick test_empty_graph_pregel;
    Alcotest.test_case "singleton pagerank" `Quick test_singleton_pagerank;
    Alcotest.test_case "self loops" `Quick test_self_loop_handling;
    Alcotest.test_case "single partition" `Quick test_single_partition_run;
    Alcotest.test_case "more partitions than edges" `Quick test_more_partitions_than_edges;
    Alcotest.test_case "2D rectangle covers" `Quick test_two_d_rectangle_covers_all;
    Alcotest.test_case "2D square bound" `Quick test_two_d_perfect_square_bound;
    Alcotest.test_case "streaming on empty" `Quick test_streaming_on_empty;
    Alcotest.test_case "infra experiment shape" `Quick test_infra_experiment_shape;
    Alcotest.test_case "SSSP island landmark" `Quick test_sssp_landmark_on_island;
    Alcotest.test_case "pregel both directions" `Quick test_pregel_both_directions_emit;
    Alcotest.test_case "report pct" `Quick test_report_pct;
    Alcotest.test_case "diameter singleton" `Quick test_diameter_singleton;
  ]
