module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace
module Pagerank = Cutfit_algo.Pagerank
module Cc = Cutfit_algo.Connected_components
module Tr = Cutfit_algo.Triangle_count
module Sssp = Cutfit_algo.Sssp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let cluster = Test_util.tiny_cluster ()
let np = cluster.Cluster.num_partitions

let pg_of g =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g in
  Pgraph.build g ~num_partitions:np a

let g = Test_util.random_graph ~seed:99L ~n:150 ~m:900
let pg = pg_of g

(* --- PageRank --- *)

let test_pagerank_matches_reference () =
  let r = Pagerank.run ~iterations:10 ~cluster pg in
  let expected = Pagerank.reference ~iterations:10 g in
  Array.iteri
    (fun v rank ->
      checkb "rank close" true (abs_float (rank -. expected.(v)) < 1e-10))
    r.Pagerank.ranks

let test_pagerank_sink_keeps_initial () =
  (* A vertex with no in-edges never receives a message. *)
  let chain = Test_util.graph_of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let pg = pg_of chain in
  let r = Pagerank.run ~iterations:5 ~cluster pg in
  checkb "source stays 1.0" true (abs_float (r.Pagerank.ranks.(0) -. 1.0) < 1e-12)

let test_pagerank_ranks_positive () =
  let r = Pagerank.run ~cluster pg in
  Array.iter (fun rank -> checkb ">= 0.15" true (rank >= 0.15 -. 1e-12)) r.Pagerank.ranks

let test_pagerank_hub_outranks_leaf () =
  (* A star: many vertices point at 0. *)
  let star = Test_util.graph_of_edges ~n:10 (List.init 9 (fun i -> (i + 1, 0))) in
  let pg = pg_of star in
  let r = Pagerank.run ~cluster pg in
  checkb "center highest" true
    (Array.for_all (fun x -> r.Pagerank.ranks.(0) >= x) r.Pagerank.ranks)

let prop_pagerank_matches_reference =
  Test_util.qtest ~count:25 "PR = sequential reference" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      if Graph.num_edges g = 0 then true
      else begin
        let pg = pg_of g in
        let r = Pagerank.run ~iterations:5 ~cluster pg in
        let expected = Pagerank.reference ~iterations:5 g in
        Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) r.Pagerank.ranks expected
      end)

(* --- Connected components --- *)

let test_cc_converges () =
  let r = Cc.run ~iterations:100 ~cluster pg in
  Alcotest.(check (array int)) "labels" (Cc.reference g) r.Cc.labels

let test_cc_iteration_cap () =
  (* A long path cannot converge in 2 iterations. *)
  let path = Test_util.graph_of_edges ~n:20 (List.init 19 (fun i -> (i, i + 1))) in
  let pg = pg_of path in
  let r = Cc.run ~iterations:2 ~cluster pg in
  checkb "capped" true (r.Cc.trace.Trace.outcome = Trace.Max_supersteps);
  checkb "not yet converged" true (r.Cc.labels <> Cc.reference path)

(* --- Triangle count --- *)

let test_tr_matches_substrate () =
  let r = Tr.run ~cluster pg in
  let per_vertex, _ = Test_util.brute_force_triangles (Test_util.edges_of g) in
  checki "total" (Cutfit_graph.Triangles.count g) r.Tr.total;
  Alcotest.(check (array int)) "per vertex" per_vertex r.Tr.per_vertex

let test_tr_k4 () =
  let k4 = Test_util.graph_of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  let r = Tr.run ~cluster (pg_of k4) in
  checki "K4" 4 r.Tr.total

let test_tr_reciprocated_edges_not_double_counted () =
  let tri =
    Test_util.graph_of_edges ~n:3 [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 0); (0, 2) ]
  in
  let r = Tr.run ~cluster (pg_of tri) in
  checki "one triangle" 1 r.Tr.total

let test_tr_four_stages () =
  let r = Tr.run ~cluster pg in
  checki "four dataflow stages" 4 (List.length r.Tr.trace.Trace.supersteps)

let test_tr_shared_undirected_view () =
  let und = Graph.symmetrize g in
  let r = Tr.run ~undirected:und ~cluster pg in
  checki "same result" (Cutfit_graph.Triangles.count g) r.Tr.total

let prop_tr_matches_substrate =
  Test_util.qtest ~count:25 "TR = substrate count" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      if Graph.num_edges g = 0 then true
      else begin
        let r = Tr.run ~cluster (pg_of g) in
        r.Tr.total = Cutfit_graph.Triangles.count g
      end)

(* --- SSSP --- *)

let test_sssp_matches_bfs () =
  let landmarks = [| 3; 77 |] in
  let r = Sssp.run ~cluster ~landmarks pg in
  let expected = Sssp.reference g ~landmarks in
  Alcotest.(check bool) "distances" true (r.Sssp.distances = expected)

let test_sssp_landmark_zero_distance () =
  let r = Sssp.run ~cluster ~landmarks:[| 5 |] pg in
  checki "self distance" 0 r.Sssp.distances.(5).(0)

let test_sssp_unreachable_infinite () =
  let two = Test_util.graph_of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let r = Sssp.run ~cluster ~landmarks:[| 1 |] (pg_of two) in
  checki "cross-component" max_int r.Sssp.distances.(2).(0)

let test_sssp_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Sssp.run: empty landmark set") (fun () ->
      ignore (Sssp.run ~cluster ~landmarks:[||] pg));
  Alcotest.check_raises "range" (Invalid_argument "Sssp.run: landmark out of range") (fun () ->
      ignore (Sssp.run ~cluster ~landmarks:[| 100000 |] pg))

let test_sssp_pick_landmarks () =
  let l = Sssp.pick_landmarks ~seed:3L ~count:5 g in
  checki "five" 5 (Array.length l);
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun v ->
      checkb "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.add tbl v ())
    l

(* Each slot starts at its own landmark, also when a landmark repeats:
   boxed, CSR and the BFS reference agree slot for slot. *)
let test_sssp_repeated_landmarks () =
  let csr = Cutfit_bsp.Csr.build pg in
  List.iter
    (fun landmarks ->
      let name = String.concat "," (Array.to_list (Array.map string_of_int landmarks)) in
      let want = Sssp.reference g ~landmarks in
      Alcotest.(check (array (array int)))
        ("boxed = reference for " ^ name)
        want (Sssp.run ~cluster ~landmarks pg).Sssp.distances;
      Alcotest.(check (array (array int)))
        ("run_csr = reference for " ^ name)
        want (Sssp.run_csr ~landmarks csr);
      Array.iteri
        (fun i l -> checki (Printf.sprintf "slot %d at its landmark" i) 0 want.(l).(i))
        landmarks)
    [ [| 7; 7 |]; [| 3; 77; 3 |] ]

let test_sssp_long_path_ooms_small_driver () =
  (* Hundreds of supersteps against a small driver reproduces the
     paper's road-network OOM. *)
  let n = 400 in
  let path =
    Test_util.graph_of_edges ~n
      (List.concat_map (fun i -> [ (i, i + 1); (i + 1, i) ]) (List.init (n - 1) Fun.id))
  in
  let small_driver = { cluster with Cluster.driver_memory_bytes = 2.0e8 } in
  let r = Sssp.run ~cluster:small_driver ~landmarks:[| 0 |] (pg_of path) in
  checkb "OOM" true (r.Sssp.trace.Trace.outcome = Trace.Out_of_memory)

let prop_sssp_matches_bfs =
  Test_util.qtest ~count:25 "SSSP = BFS reference" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      if Graph.num_edges g = 0 then true
      else begin
        let r = Sssp.run ~cluster ~landmarks:[| 0; Graph.num_vertices g - 1 |] (pg_of g) in
        r.Sssp.distances = Sssp.reference g ~landmarks:[| 0; Graph.num_vertices g - 1 |]
      end)

(* --- flat programs against boxed oracles ---

   The library's PR, CC and SSSP programs keep their values in flat
   typed arrays. The oracles below are the same recurrences in the
   engine's former boxed shape (values and messages of any type, one
   [merge]), run through [Test_util.boxed]. Both run on the same engine,
   so every charge and every value must agree to the bit. *)

module Pregel = Cutfit_bsp.Pregel
module Determinism = Cutfit_check.Determinism

let pagerank_oracle g =
  let out_deg = Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.out_degree g v)) in
  (* The initial message is a sentinel: superstep 0 leaves the initial
     rank in place. *)
  let sentinel = -1.0 in
  {
    Test_util.init = (fun _ -> 1.0);
    initial_msg = sentinel;
    vprog = (fun _ rank m -> if Float.equal m sentinel then rank else 0.15 +. (0.85 *. m));
    send =
      (fun ~src ~dst:_ ~src_attr ~dst_attr:_ ~emit ->
        let d = out_deg.(src) in
        if d > 0.0 then emit Pregel.To_dst (src_attr /. d));
    merge = ( +. );
    state_bytes = 8;
    msg_bytes = 8;
  }

let cc_oracle =
  {
    Test_util.init = (fun v -> v);
    initial_msg = max_int;
    vprog = (fun _ label m -> min label m);
    send =
      (fun ~src:_ ~dst:_ ~src_attr ~dst_attr ~emit ->
        if src_attr < dst_attr then emit Pregel.To_dst src_attr
        else if dst_attr < src_attr then emit Pregel.To_src dst_attr);
    merge = min;
    state_bytes = 8;
    msg_bytes = 8;
  }

(* One distance vector per vertex; every message is a fresh vector. *)
let sssp_oracle ~landmarks =
  let k = Array.length landmarks in
  let bytes = 96 + (64 * k) in
  let pointwise_min a b = Array.init k (fun i -> min a.(i) b.(i)) in
  let increment a = Array.map (fun d -> if d = max_int then d else d + 1) a in
  let improves_after_hop ~dist ~current =
    let found = ref false in
    Array.iteri (fun i d -> if d <> max_int && d + 1 < current.(i) then found := true) dist;
    !found
  in
  {
    Test_util.init =
      (fun v -> Array.init k (fun i -> if landmarks.(i) = v then 0 else max_int));
    initial_msg = Array.make k max_int;
    vprog = (fun _ current m -> pointwise_min current m);
    send =
      (fun ~src:_ ~dst:_ ~src_attr ~dst_attr ~emit ->
        if improves_after_hop ~dist:dst_attr ~current:src_attr then
          emit Pregel.To_src (increment dst_attr));
    merge = pointwise_min;
    state_bytes = bytes;
    msg_bytes = bytes;
  }

(* A multigraph with self-loops and parallel edges, [isolated] vertices
   above every edge's ids, one of clusters (i)-(iv) with a partition
   count (small, or the cluster's own), a strategy, two landmark draws,
   PageRank's iteration count, and the what-if the runs are priced
   under: an optional driver-memory limit, faults, checkpoints,
   speculation, host heterogeneity and scale events. PageRank declares
   [static_emits] and its boxed oracle does not, so the PR comparison
   pins the repeated-superstep reuse against steps all charged. *)
type oracle_case = {
  n : int;
  edges : (int * int) list;
  cluster : Cluster.t;
  strategy : Strategy.t;
  l0 : int;
  l1 : int;
  iterations : int;
  driver_steps : int option;  (** the driver runs out of memory after this many stages *)
  faults : (string * Cutfit_bsp.Faults.mode) option;
  checkpoint_every : int option;
  speculate : bool;
  hetero : bool;
  scale_events : string option;
}

let oracle_case_gen =
  let open QCheck2.Gen in
  Test_util.small_multigraph_gen >>= fun (n, edges) ->
  int_range 0 3 >>= fun isolated ->
  oneofl Cluster.[ config_i; config_ii; config_iii; config_iv ] >>= fun config ->
  oneofl [ 1; 3; 16; config.Cluster.num_partitions ] >>= fun num_partitions ->
  oneofl Strategy.all >>= fun strategy ->
  let n = n + isolated in
  pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) >>= fun (l0, l1) ->
  int_range 1 12 >>= fun iterations ->
  opt (int_range 1 12) >>= fun driver_steps ->
  opt
    (pair
       (oneofl
          [
            "crash@2";
            "straggler@1-3:x8";
            "loss@2:r2";
            "net@2-4";
            "crash@1,loss@3";
            "rand@0.5";
            "crash@3,straggler@2:x20,loss@4:r3";
          ])
       (oneofl Cutfit_bsp.Faults.[ Rollback; Lineage ]))
  >>= fun faults ->
  opt (int_range 1 3) >>= fun checkpoint_every ->
  bool >>= fun speculate ->
  bool >>= fun hetero ->
  opt (oneofl [ "leave@2-1,join@4+2"; "join@2"; "leave@3-2"; "preempt@2"; "join@1+3,leave@5-2" ])
  >|= fun scale_events ->
  {
    n;
    edges;
    cluster = { config with Cluster.num_partitions };
    strategy;
    l0;
    l1;
    iterations;
    driver_steps;
    faults;
    checkpoint_every;
    speculate;
    hetero;
    scale_events;
  }

let print_oracle_case c =
  let opt f = function None -> "-" | Some x -> f x in
  Printf.sprintf
    "%s %s P=%d %s landmarks=%d,%d iterations=%d driver_steps=%s faults=%s checkpoint_every=%s \
     speculate=%b hetero=%b scale_events=%s"
    (Test_util.print_small_graph (c.n, c.edges))
    c.cluster.Cluster.name c.cluster.Cluster.num_partitions (Strategy.to_string c.strategy) c.l0
    c.l1 c.iterations (opt string_of_int c.driver_steps)
    (opt (fun (spec, mode) -> spec ^ " " ^ Cutfit_bsp.Faults.mode_name mode) c.faults)
    (opt string_of_int c.checkpoint_every)
    c.speculate c.hetero (opt Fun.id c.scale_events)

let bits_equal a b = Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The run's trace and the digest of the events it emitted. *)
let observed run =
  let sink, read = Cutfit_obs.Sink.collect () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let r = run telemetry in
  Cutfit_obs.Telemetry.close telemetry;
  (r, Determinism.events_digest (read ()))

(* A case's graph, cluster, what-if and partitioned graph. *)
let oracle_setup c =
  let g = Test_util.graph_of_edges ~n:c.n c.edges in
  let parts = c.cluster.Cluster.num_partitions in
  let cluster =
    match c.driver_steps with
    | None -> c.cluster
    | Some k ->
        {
          c.cluster with
          Cluster.driver_memory_bytes =
            (float_of_int k +. 0.5)
            *. float_of_int parts
            *. Cutfit_bsp.Cost_model.default.Cutfit_bsp.Cost_model.driver_meta_per_task_bytes;
        }
  in
  let executors = cluster.Cluster.executors in
  let what_if =
    {
      Cutfit_bsp.Pricer.checkpoint_every = c.checkpoint_every;
      faults =
        Option.map (fun (spec, mode) -> Cutfit_bsp.Faults.config ~seed:11 ~mode spec) c.faults;
      speculation =
        (if c.speculate then Some (Cutfit_bsp.Speculation.config ~seed:13 ()) else None);
      hetero =
        (if c.hetero then Some (Cutfit_bsp.Elastic.draw_hetero ~seed:17 ~executors) else None);
      elastic = Option.map (Cutfit_bsp.Elastic.config ~seed:19) c.scale_events;
    }
  in
  let a = Partitioner.assign (Partitioner.Hash c.strategy) ~num_partitions:parts g in
  (g, cluster, what_if, Pgraph.build g ~num_partitions:parts a)

let prop_flat_programs_match_oracles =
  Test_util.qtest ~count:120 "flat PR/CC/SSSP = boxed oracles, bit for bit" ~print:print_oracle_case
    oracle_case_gen (fun c ->
      let g, cluster, what_if, pg = oracle_setup c in
      let same what (trace, events) ((o : _ Test_util.boxed_result), o_events) values_equal =
        let o_trace = Determinism.trace_digest o.Test_util.trace in
        if not (String.equal (Determinism.trace_digest trace) o_trace) then
          QCheck2.Test.fail_reportf "%s: trace digests differ" what;
        if not (String.equal events o_events) then
          QCheck2.Test.fail_reportf "%s: event digests differ" what;
        if not values_equal then QCheck2.Test.fail_reportf "%s: values differ" what;
        true
      in
      let oracle ~max_supersteps b =
        observed (fun telemetry ->
            Test_util.run_boxed ~max_supersteps ~what_if ~telemetry ~cluster pg b)
      in
      let pr, pr_events =
        observed (fun telemetry ->
            Pagerank.run ~iterations:c.iterations ~what_if ~telemetry ~cluster pg)
      in
      let pr_o = oracle ~max_supersteps:c.iterations (pagerank_oracle g) in
      let cc, cc_events = observed (fun telemetry -> Cc.run ~what_if ~telemetry ~cluster pg) in
      let cc_o = oracle ~max_supersteps:10 cc_oracle in
      let sssp landmarks =
        let r, events =
          observed (fun telemetry -> Sssp.run ~what_if ~telemetry ~cluster ~landmarks pg)
        in
        let o = oracle ~max_supersteps:2000 (sssp_oracle ~landmarks) in
        same
          (Printf.sprintf "SSSP k=%d" (Array.length landmarks))
          (r.Sssp.trace, events) o (r.Sssp.distances = (fst o).Test_util.attrs)
      in
      same "PR" (pr.Pagerank.trace, pr_events) pr_o
        (bits_equal pr.Pagerank.ranks (fst pr_o).Test_util.attrs)
      && same "CC" (cc.Cc.trace, cc_events) cc_o (cc.Cc.labels = (fst cc_o).Test_util.attrs)
      && sssp [| c.l0 |]
      && sssp [| c.l0; c.l1; c.l0 |])

(* [Pagerank.price] leaves PageRank's repeated supersteps unexecuted;
   its trace and events must be [run]'s over every draw above. *)
let prop_price_matches_run =
  Test_util.qtest ~count:120 "PR price = run, trace and events" ~print:print_oracle_case
    oracle_case_gen (fun c ->
      let _, cluster, what_if, pg = oracle_setup c in
      let run, run_events =
        observed (fun telemetry ->
            (Pagerank.run ~iterations:c.iterations ~what_if ~telemetry ~cluster pg).Pagerank.trace)
      in
      let price, price_events =
        observed (fun telemetry ->
            Pagerank.price ~iterations:c.iterations ~what_if ~telemetry ~cluster pg)
      in
      if not (String.equal (Determinism.trace_digest run) (Determinism.trace_digest price)) then
        QCheck2.Test.fail_reportf "trace digests differ";
      if not (String.equal run_events price_events) then
        QCheck2.Test.fail_reportf "event digests differ";
      true)

(* Every vertex of a cycle with chords has an in-edge, so PageRank's
   steps 2-10 repeat step 1: [run] sends over every edge in each of
   them, [price] only in step 1, and both price the same trace. *)
let test_price_sends_in_charged_steps () =
  let n = 40 in
  let g =
    Test_util.graph_of_edges ~n
      (List.init n (fun v -> (v, (v + 1) mod n)) @ List.init n (fun v -> (v, ((7 * v) + 3) mod n)))
  in
  let pg = pg_of g in
  let count exec =
    let sends = ref 0 in
    let program, _ = Test_util.boxed ~static_emits:true ~n (pagerank_oracle g) in
    let send ~src ~dst ~emit =
      incr sends;
      program.Pregel.send ~src ~dst ~emit
    in
    let trace = exec { program with Pregel.send } in
    (!sends, Determinism.trace_digest trace)
  in
  let run_sends, run_digest = count (Pregel.run ~max_supersteps:10 ~cluster pg) in
  let price_sends, price_digest = count (Pregel.price ~max_supersteps:10 ~cluster pg) in
  let m = Graph.num_edges g in
  checki "run: every step" (10 * m) run_sends;
  checki "price: step 1 only" m price_sends;
  Alcotest.(check string) "same trace" run_digest price_digest

let suite =
  [
    Alcotest.test_case "PR matches reference" `Quick test_pagerank_matches_reference;
    Alcotest.test_case "PR source keeps initial rank" `Quick test_pagerank_sink_keeps_initial;
    Alcotest.test_case "PR ranks positive" `Quick test_pagerank_ranks_positive;
    Alcotest.test_case "PR hub outranks" `Quick test_pagerank_hub_outranks_leaf;
    prop_pagerank_matches_reference;
    Alcotest.test_case "CC converges" `Quick test_cc_converges;
    Alcotest.test_case "CC iteration cap" `Quick test_cc_iteration_cap;
    Alcotest.test_case "TR matches substrate" `Quick test_tr_matches_substrate;
    Alcotest.test_case "TR K4" `Quick test_tr_k4;
    Alcotest.test_case "TR reciprocated edges" `Quick test_tr_reciprocated_edges_not_double_counted;
    Alcotest.test_case "TR four stages" `Quick test_tr_four_stages;
    Alcotest.test_case "TR shared undirected view" `Quick test_tr_shared_undirected_view;
    prop_tr_matches_substrate;
    Alcotest.test_case "SSSP matches BFS" `Quick test_sssp_matches_bfs;
    Alcotest.test_case "SSSP landmark zero" `Quick test_sssp_landmark_zero_distance;
    Alcotest.test_case "SSSP unreachable" `Quick test_sssp_unreachable_infinite;
    Alcotest.test_case "SSSP validation" `Quick test_sssp_validation;
    Alcotest.test_case "SSSP pick landmarks" `Quick test_sssp_pick_landmarks;
    Alcotest.test_case "SSSP repeated landmarks" `Quick test_sssp_repeated_landmarks;
    Alcotest.test_case "SSSP long path OOM" `Quick test_sssp_long_path_ooms_small_driver;
    prop_sssp_matches_bfs;
    prop_flat_programs_match_oracles;
    prop_price_matches_run;
    Alcotest.test_case "PR price sends in charged steps" `Quick test_price_sends_in_charged_steps;
  ]
