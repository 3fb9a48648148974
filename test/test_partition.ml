module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Streaming = Cutfit_partition.Streaming
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Hashing = Cutfit_partition.Hashing
module Pgraph = Cutfit_bsp.Pgraph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let g = Test_util.random_graph ~seed:77L ~n:300 ~m:2000
let num_partitions = 16

let test_strategy_strings () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.to_string s) with
      | Some s' -> checkb "roundtrip" true (s = s')
      | None -> Alcotest.fail "of_string failed")
    Strategy.all;
  checkb "unknown rejected" true (Strategy.of_string "bogus" = None);
  checkb "case insensitive" true (Strategy.of_string "crvc" = Some Strategy.Crvc)

let test_assignments_in_range () =
  List.iter
    (fun p ->
      let a = Partitioner.assign p ~num_partitions g in
      checki "length" (Graph.num_edges g) (Array.length a);
      Array.iter (fun x -> checkb "range" true (x >= 0 && x < num_partitions)) a)
    (Partitioner.paper_six @ Partitioner.streaming_baselines)

let test_sc_dc_are_modulo () =
  for i = 0 to 50 do
    let src = i * 13 and dst = i * 7 in
    checki "SC" (src mod num_partitions)
      (Strategy.edge_partition Strategy.Sc ~num_partitions ~src ~dst);
    checki "DC" (dst mod num_partitions)
      (Strategy.edge_partition Strategy.Dc ~num_partitions ~src ~dst)
  done

let test_one_d_collocates_sources () =
  let p1 = Strategy.edge_partition Strategy.One_d ~num_partitions ~src:42 ~dst:1 in
  let p2 = Strategy.edge_partition Strategy.One_d ~num_partitions ~src:42 ~dst:999 in
  checki "same source same partition" p1 p2

let test_crvc_collocates_pairs () =
  for i = 0 to 100 do
    let u = i and v = 2 * i + 1 in
    checki "unordered pair"
      (Strategy.edge_partition Strategy.Crvc ~num_partitions ~src:u ~dst:v)
      (Strategy.edge_partition Strategy.Crvc ~num_partitions ~src:v ~dst:u)
  done

let test_rvc_collocates_parallel_edges () =
  let p1 = Strategy.edge_partition Strategy.Rvc ~num_partitions ~src:5 ~dst:9 in
  let p2 = Strategy.edge_partition Strategy.Rvc ~num_partitions ~src:5 ~dst:9 in
  checki "same directed pair" p1 p2

let test_two_d_replication_bound () =
  (* 2D guarantees <= 2*ceil(sqrt N) replicas per vertex. *)
  let num_partitions = 16 in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Two_d) ~num_partitions g in
  let replicas = Metrics.replica_count g ~num_partitions a in
  Array.iter (fun r -> checkb "<= 2 sqrt N" true (r <= 8)) replicas

let test_strategy_errors () =
  Alcotest.check_raises "bad partitions"
    (Invalid_argument "Strategy.edge_partition: num_partitions <= 0") (fun () ->
      ignore (Strategy.edge_partition Strategy.Rvc ~num_partitions:0 ~src:1 ~dst:2));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Strategy.edge_partition: negative vertex id") (fun () ->
      ignore (Strategy.edge_partition Strategy.Rvc ~num_partitions:4 ~src:(-1) ~dst:2))

let test_hashing_nonnegative () =
  for i = -1000 to 1000 do
    checkb "mix nonneg" true (Hashing.mix i >= 0)
  done

(* A small multigraph (self-loops, parallel edges, isolated vertices)
   with a random assignment over P partitions, drawn from [0, used) so
   that partitions at and past [used] stay empty. *)
let presence_case_gen =
  let open QCheck2.Gen in
  int_range 1 30 >>= fun n ->
  int_range 0 80 >>= fun m ->
  list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) >>= fun edges ->
  oneof [ oneofl [ 1; 2; 7; 63; 64; 65; 128 ]; int_range (n + 1) (n + 70) ] >>= fun np ->
  int_range 1 np >>= fun used ->
  list_repeat m (int_range 0 (used - 1)) >|= fun a -> (n, edges, np, Array.of_list a)

let print_presence_case (n, edges, np, a) =
  Printf.sprintf "%s P=%d assignment=[%s]"
    (Test_util.print_small_graph (n, edges))
    np
    (String.concat ";" (Array.to_list (Array.map string_of_int a)))

(* Each vertex's partitions, ascending and without repeats. *)
let naive_parts g a =
  let parts = Array.make (Graph.num_vertices g) [] in
  Array.iteri
    (fun e p ->
      parts.(Graph.edge_src g e) <- p :: parts.(Graph.edge_src g e);
      parts.(Graph.edge_dst g e) <- p :: parts.(Graph.edge_dst g e))
    a;
  Array.map (List.sort_uniq Int.compare) parts

let naive_metrics g ~num_partitions a =
  let parts = naive_parts g a in
  let edges_per_partition = Array.make num_partitions 0 in
  Array.iter (fun p -> edges_per_partition.(p) <- edges_per_partition.(p) + 1) a;
  let vertices_per_partition = Array.make num_partitions 0 in
  Array.iter (List.iter (fun p -> vertices_per_partition.(p) <- vertices_per_partition.(p) + 1)) parts;
  let count f = Array.fold_left (fun acc ps -> acc + f ps) 0 parts in
  let non_cut = count (fun ps -> if List.length ps = 1 then 1 else 0) in
  let cut = count (fun ps -> if List.length ps > 1 then 1 else 0) in
  let comm_cost = count (fun ps -> if List.length ps > 1 then List.length ps else 0) in
  let replicas = count List.length in
  let vertices_to_same = ref 0 in
  Array.iteri (fun v ps -> if List.mem (v mod num_partitions) ps then incr vertices_to_same) parts;
  let avg = float_of_int (Array.length a) /. float_of_int num_partitions in
  let max_edges = Array.fold_left max 0 edges_per_partition in
  {
    Metrics.num_partitions;
    edges_per_partition;
    vertices_per_partition;
    balance = (if avg = 0.0 then 1.0 else float_of_int max_edges /. avg);
    non_cut;
    cut;
    comm_cost;
    part_stdev = Cutfit_stats.Summary.stdev (Array.map float_of_int edges_per_partition);
    replication_factor =
      (if non_cut + cut = 0 then 0.0 else float_of_int replicas /. float_of_int (non_cut + cut));
    vertices_to_same = !vertices_to_same;
    vertices_to_other = replicas - !vertices_to_same;
  }

(* Every field equal, floats bit for bit. *)
let same_metrics (x : Metrics.t) (y : Metrics.t) =
  let bits f = Int64.bits_of_float f in
  x.Metrics.num_partitions = y.Metrics.num_partitions
  && x.Metrics.edges_per_partition = y.Metrics.edges_per_partition
  && x.Metrics.vertices_per_partition = y.Metrics.vertices_per_partition
  && Int64.equal (bits x.Metrics.balance) (bits y.Metrics.balance)
  && x.Metrics.non_cut = y.Metrics.non_cut
  && x.Metrics.cut = y.Metrics.cut
  && x.Metrics.comm_cost = y.Metrics.comm_cost
  && Int64.equal (bits x.Metrics.part_stdev) (bits y.Metrics.part_stdev)
  && Int64.equal (bits x.Metrics.replication_factor) (bits y.Metrics.replication_factor)
  && x.Metrics.vertices_to_same = y.Metrics.vertices_to_same
  && x.Metrics.vertices_to_other = y.Metrics.vertices_to_other

let prop_metrics_match_bruteforce =
  Test_util.qtest ~count:300 "metrics match brute force" ~print:print_presence_case
    presence_case_gen (fun (n, edges, num_partitions, a) ->
      let g = Test_util.graph_of_edges ~n edges in
      same_metrics (Metrics.compute g ~num_partitions a) (naive_metrics g ~num_partitions a))

let test_metrics_identities () =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Crvc) ~num_partitions g in
  let m = Metrics.compute g ~num_partitions a in
  checki "edges preserved" (Graph.num_edges g)
    (Array.fold_left ( + ) 0 m.Metrics.edges_per_partition);
  checkb "balance >= 1" true (m.Metrics.balance >= 1.0 -. 1e-9);
  checkb "cut + non_cut <= n" true (m.Metrics.cut + m.Metrics.non_cut <= Graph.num_vertices g);
  checkb "comm >= 2 * cut" true (m.Metrics.comm_cost >= 2 * m.Metrics.cut);
  checki "local vertex tables = comm + non_cut"
    (m.Metrics.comm_cost + m.Metrics.non_cut)
    (Array.fold_left ( + ) 0 m.Metrics.vertices_per_partition)

let test_metrics_single_partition () =
  let a = Array.make (Graph.num_edges g) 0 in
  let m = Metrics.compute g ~num_partitions:1 a in
  checki "no cut vertices" 0 m.Metrics.cut;
  checkb "balance 1" true (abs_float (m.Metrics.balance -. 1.0) < 1e-9);
  checkb "stdev 0" true (m.Metrics.part_stdev < 1e-9)

let test_metric_value_lookup () =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions g in
  let m = Metrics.compute g ~num_partitions a in
  checkb "CommCost" true (Metrics.metric_value m "CommCost" = float_of_int m.Metrics.comm_cost);
  Alcotest.check_raises "unknown metric"
    (Invalid_argument "Metrics.metric_value: unknown metric Bogus") (fun () ->
      ignore (Metrics.metric_value m "Bogus"))

let test_streaming_deterministic () =
  List.iter
    (fun s ->
      let a1 = Streaming.assign s ~num_partitions g in
      let a2 = Streaming.assign s ~num_partitions g in
      Alcotest.(check (array int)) (Streaming.to_string s) a1 a2)
    [ Streaming.Dbh; Streaming.Greedy; Streaming.Hdrf 1.0 ]

let test_greedy_beats_random_on_replication () =
  let greedy = Streaming.assign Streaming.Greedy ~num_partitions g in
  let random = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions g in
  let comm a = (Metrics.compute g ~num_partitions a).Metrics.comm_cost in
  checkb "greedy replicates less" true (comm greedy < comm random)

let test_custom_partitioner () =
  let custom =
    Partitioner.Custom ("all-zero", fun ~num_partitions:_ g -> Array.make (Graph.num_edges g) 0)
  in
  let a = Partitioner.assign custom ~num_partitions g in
  checkb "all zero" true (Array.for_all (fun p -> p = 0) a);
  let bad = Partitioner.Custom ("bad", fun ~num_partitions:_ _ -> [| 99 |]) in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Partitioner.assign: custom partitioner returned wrong length") (fun () ->
      ignore (Partitioner.assign bad ~num_partitions g))

let test_partitioner_names () =
  checkb "parse RVC" true (Partitioner.of_string "RVC" <> None);
  checkb "parse hdrf" true (Partitioner.of_string "hdrf" <> None);
  checkb "parse junk" true (Partitioner.of_string "zzz" = None)

let prop_paper_six_cover_all_edges =
  Test_util.qtest "every strategy assigns every edge" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      List.for_all
        (fun p ->
          let a = Partitioner.assign p ~num_partitions:7 g in
          Array.length a = Graph.num_edges g && Array.for_all (fun x -> x >= 0 && x < 7) a)
        Partitioner.paper_six)

let suite =
  [
    Alcotest.test_case "strategy strings" `Quick test_strategy_strings;
    Alcotest.test_case "assignments in range" `Quick test_assignments_in_range;
    Alcotest.test_case "SC/DC are modulo" `Quick test_sc_dc_are_modulo;
    Alcotest.test_case "1D collocates sources" `Quick test_one_d_collocates_sources;
    Alcotest.test_case "CRVC collocates pairs" `Quick test_crvc_collocates_pairs;
    Alcotest.test_case "RVC deterministic per pair" `Quick test_rvc_collocates_parallel_edges;
    Alcotest.test_case "2D replication bound" `Quick test_two_d_replication_bound;
    Alcotest.test_case "strategy errors" `Quick test_strategy_errors;
    Alcotest.test_case "hash nonnegative" `Quick test_hashing_nonnegative;
    prop_metrics_match_bruteforce;
    Alcotest.test_case "metrics identities" `Quick test_metrics_identities;
    Alcotest.test_case "metrics single partition" `Quick test_metrics_single_partition;
    Alcotest.test_case "metric lookup" `Quick test_metric_value_lookup;
    Alcotest.test_case "streaming deterministic" `Quick test_streaming_deterministic;
    Alcotest.test_case "greedy beats random replication" `Quick test_greedy_beats_random_on_replication;
    Alcotest.test_case "custom partitioner" `Quick test_custom_partitioner;
    Alcotest.test_case "partitioner names" `Quick test_partitioner_names;
    prop_paper_six_cover_all_edges;
  ]

(* --- VTS/VTO identity --- *)

let test_vts_vto_identity () =
  List.iter
    (fun p ->
      let a = Partitioner.assign p ~num_partitions g in
      let m = Metrics.compute g ~num_partitions a in
      checki
        (Partitioner.name p ^ ": comm+noncut = same+other")
        (m.Metrics.comm_cost + m.Metrics.non_cut)
        (m.Metrics.vertices_to_same + m.Metrics.vertices_to_other))
    Partitioner.paper_six

let test_vts_bounded_by_vertices () =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions g in
  let m = Metrics.compute g ~num_partitions a in
  checkb "VTS <= vertices" true (m.Metrics.vertices_to_same <= Graph.num_vertices g)

let test_dc_maximizes_vts () =
  (* Under DC with identity masters, every vertex with in-edges sits in
     its own master partition, so DC should collocate at least as well
     as RVC. *)
  let vts p =
    let a = Partitioner.assign (Partitioner.Hash p) ~num_partitions g in
    (Metrics.compute g ~num_partitions a).Metrics.vertices_to_same
  in
  checkb "DC >= RVC" true (vts Strategy.Dc >= vts Strategy.Rvc)

let extended_suite =
  [
    Alcotest.test_case "VTS/VTO identity" `Quick test_vts_vto_identity;
    Alcotest.test_case "VTS bounded" `Quick test_vts_bounded_by_vertices;
    Alcotest.test_case "DC collocates masters" `Quick test_dc_maximizes_vts;
  ]

let suite = suite @ extended_suite

(* --- hybrid-cut --- *)

let test_hybrid_low_degree_groups_by_dst () =
  (* In a graph where every in-degree is 1, hybrid = DC-with-hash. *)
  let chain = Test_util.graph_of_edges ~n:10 (List.init 9 (fun i -> (i, i + 1))) in
  let a = Streaming.assign (Streaming.Hybrid 5) ~num_partitions:4 chain in
  Array.iteri
    (fun e p ->
      checki "hashed by dst" (Hashing.hash1 (Graph.edge_dst chain e) ~num_partitions:4) p)
    a

let test_hybrid_spreads_hub_in_edges () =
  (* A star with 100 in-edges to the hub: hybrid with threshold 10 must
     spread them by source, touching many partitions. *)
  let star = Test_util.graph_of_edges ~n:101 (List.init 100 (fun i -> (i + 1, 0))) in
  let a = Streaming.assign (Streaming.Hybrid 10) ~num_partitions:8 star in
  let used = Array.make 8 false in
  Array.iter (fun p -> used.(p) <- true) a;
  let count = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
  checkb "spread over most partitions" true (count >= 6);
  (* DC by contrast concentrates them all in one partition. *)
  let dc = Partitioner.assign (Partitioner.Hash Strategy.Dc) ~num_partitions:8 star in
  checkb "DC concentrates" true (Array.for_all (fun p -> p = dc.(0)) dc)

let test_hybrid_parse () =
  checkb "parses" true (Streaming.of_string "hybrid" = Some (Streaming.Hybrid 100))

let suite =
  suite
  @ [
      Alcotest.test_case "hybrid groups by dst" `Quick test_hybrid_low_degree_groups_by_dst;
      Alcotest.test_case "hybrid spreads hub" `Quick test_hybrid_spreads_hub_in_edges;
      Alcotest.test_case "hybrid parse" `Quick test_hybrid_parse;
    ]

(* --- streaming order + quality invariants --- *)

let test_streaming_order_determinism () =
  List.iter
    (fun h ->
      let a1 = Streaming.assign ~order:123L h ~num_partitions g in
      let a2 = Streaming.assign ~order:123L h ~num_partitions g in
      checkb "same order seed reproduces bit-exactly" true (a1 = a2);
      checki "indexed by original edge id" (Graph.num_edges g) (Array.length a1);
      Array.iter (fun p -> checkb "range" true (p >= 0 && p < num_partitions)) a1)
    [ Streaming.Greedy; Streaming.Hdrf 1.0; Streaming.Dbh ];
  checkb "order changes the greedy stream" true
    (Streaming.assign ~order:1L Streaming.Greedy ~num_partitions g
    <> Streaming.assign ~order:2L Streaming.Greedy ~num_partitions g);
  (* Hashing heuristics consult no stream state, so any visit order
     lands every edge on the same partition. *)
  checkb "DBH is order-oblivious" true
    (Streaming.assign ~order:1L Streaming.Dbh ~num_partitions g
    = Streaming.assign Streaming.Dbh ~num_partitions g)

(* A hub-heavy social graph: superstar hubs concentrate a big share of
   the edges, the regime the degree-aware heuristics are built for. *)
let hubby =
  Cutfit_gen.Social.generate
    {
      Cutfit_gen.Social.default with
      Cutfit_gen.Social.vertices = 1500;
      edges = 9000;
      superstar_share = 0.15;
      seed = 5L;
    }

let stream_metrics h = Metrics.compute hubby ~num_partitions (Streaming.assign h ~num_partitions hubby)

let test_hdrf_replication_beats_greedy () =
  (* HDRF's whole point (Petroni et al. 2015): replicating the high-
     degree endpoints first yields a lower replication factor than
     plain greedy on power-law graphs. *)
  let rf h = (stream_metrics h).Metrics.replication_factor in
  checkb "HDRF <= Greedy replication on a hub-heavy graph" true
    (rf (Streaming.Hdrf 1.0) <= rf Streaming.Greedy)

let test_hybrid_balance_bound () =
  (* Hybrid hashes every placement (by dst below the threshold, by src
     at hubs), so its edge balance stays near-uniform even when hubs
     hold a large share of the edges. *)
  let m = stream_metrics (Streaming.Hybrid 30) in
  checkb "hybrid balance stays near uniform" true (m.Metrics.balance <= 1.5)

let test_dbh_hashes_lower_degree_endpoint () =
  let a = Streaming.assign Streaming.Dbh ~num_partitions g in
  let deg v = Graph.out_degree g v + Graph.in_degree g v in
  Array.iteri
    (fun e p ->
      let s = Graph.edge_src g e and d = Graph.edge_dst g e in
      let key = if deg s <= deg d then s else d in
      checki "hashed by the lower-degree endpoint (ties to src)"
        (Hashing.hash1 key ~num_partitions) p)
    a

let suite =
  suite
  @ [
      Alcotest.test_case "streaming order determinism" `Quick test_streaming_order_determinism;
      Alcotest.test_case "HDRF replication <= greedy" `Quick test_hdrf_replication_beats_greedy;
      Alcotest.test_case "hybrid balance bound" `Quick test_hybrid_balance_bound;
      Alcotest.test_case "DBH lower-degree endpoint" `Quick test_dbh_hashes_lower_degree_endpoint;
    ]

(* --- the presence sweep behind Pgraph, and hoisted strategy dispatch --- *)

let prop_pgraph_matches_assignment =
  Test_util.qtest ~count:300 "Pgraph layout = raw assignment" ~print:print_presence_case
    presence_case_gen (fun (n, edges, num_partitions, a) ->
      let g = Test_util.graph_of_edges ~n edges in
      let pg = Pgraph.build g ~num_partitions a in
      let parts = naive_parts g a in
      same_metrics (Pgraph.metrics pg) (Metrics.compute g ~num_partitions a)
      && Array.for_all Fun.id (Array.mapi (fun v ps -> Pgraph.replicas pg v = Array.of_list ps) parts))

let prop_assign_matches_edge_partition =
  Test_util.qtest ~count:50 "assign = per-edge edge_partition"
    QCheck2.Gen.(pair (int_range 1 5000) (int_range 0 3000))
    (fun (n, m) ->
      let g = Test_util.random_multigraph ~seed:(Int64.of_int ((n * 7919) + m)) ~n ~m in
      List.for_all
        (fun (s, num_partitions) ->
          Partitioner.assign (Partitioner.Hash s) ~num_partitions g
          = Array.init (Graph.num_edges g) (fun i ->
                Strategy.edge_partition s ~num_partitions ~src:(Graph.edge_src g i)
                  ~dst:(Graph.edge_dst g i)))
        (List.concat_map (fun s -> List.map (fun p -> (s, p)) [ 16; 256; 7; 12 ]) Strategy.all))

let suite = suite @ [ prop_pgraph_matches_assignment; prop_assign_matches_edge_partition ]

(* --- the six hash strategies measured straight from the adjacency --- *)

(* Multigraphs with self-loops and parallel edges whose endpoints are
   drawn below [used], so ids at and past [used] stay isolated; P
   ranges over grid squares, non-squares and counts above n. *)
let hash_case_gen =
  let open QCheck2.Gen in
  int_range 1 40 >>= fun n ->
  int_range 1 n >>= fun used ->
  int_range 0 150 >>= fun m ->
  list_repeat m (pair (int_range 0 (used - 1)) (int_range 0 (used - 1))) >>= fun edges ->
  oneofl [ 1; 2; 3; 7; 16; 100; 128; 256 ] >|= fun np -> (n, edges, np)

let prop_of_hash_matches_assign =
  Test_util.qtest ~count:300 "of_hash = compute . assign, all six"
    ~print:(fun (n, edges, np) -> Printf.sprintf "%s P=%d" (Test_util.print_small_graph (n, edges)) np)
    hash_case_gen (fun (n, edges, num_partitions) ->
      let g = Test_util.graph_of_edges ~n edges in
      let measured = Metrics.of_hash g ~num_partitions in
      List.map fst measured = Strategy.all
      && List.for_all
           (fun (s, m) ->
             m = Metrics.compute g ~num_partitions
                   (Partitioner.assign (Partitioner.Hash s) ~num_partitions g))
           measured)

let test_of_hash_rejects_bad_partitions () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun num_partitions ->
      checkb "of_hash" true (raises (fun () -> Metrics.of_hash g ~num_partitions));
      List.iter
        (fun s ->
          checkb "assign" true
            (raises (fun () -> Partitioner.assign (Partitioner.Hash s) ~num_partitions g)))
        Strategy.all)
    [ 0; -1 ]

let test_hash2_allocation_free () =
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    acc := !acc + Hashing.hash2 i (i * 7919) ~num_partitions:128
  done;
  let after = Gc.minor_words () in
  checkb "hash2 in range" true (!acc >= 0 && !acc < 128 * 10_000);
  Alcotest.(check (float 0.0)) "minor words over 10,000 hash2 calls" 0.0 (after -. before)

let suite =
  suite
  @ [
      prop_of_hash_matches_assign;
      Alcotest.test_case "of_hash rejects P <= 0" `Quick test_of_hash_rejects_bad_partitions;
      Alcotest.test_case "hash2 allocates nothing" `Quick test_hash2_allocation_free;
    ]

(* Capability placement hashes every edge and searches the speed-weighted
   ranges without boxing, and its assignment is pinned: the MD5 of the
   marshalled youtube assignment at two executors of speeds 1 and 2,
   P = 128. *)
let test_capability_allocation_free () =
  let g = Cutfit_gen.Datasets.generate (Cutfit_gen.Datasets.find "youtube") in
  let p = Partitioner.capability ~speeds:[| 1.0; 2.0 |] ~executors:2 in
  let before = Gc.minor_words () in
  let a = Partitioner.assign p ~num_partitions:128 g in
  let words = Gc.minor_words () -. before in
  Alcotest.(check string) "assignment bits" "d0110ac804d9c06d80f4756d654b057b"
    (Digest.to_hex (Digest.string (Marshal.to_string a [])));
  checkb
    (Printf.sprintf "%.3f minor words per edge < 0.5" (words /. float_of_int (Array.length a)))
    true
    (words < 0.5 *. float_of_int (Array.length a))

let suite =
  suite
  @ [ Alcotest.test_case "capability placement allocation-free" `Quick test_capability_allocation_free ]
