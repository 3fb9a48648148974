(* The compact CSR layer: structural round-trip against the boxed
   Pgraph, bit-identical results across engines and domain counts, and
   equivalence under an injected fault schedule. *)

module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Faults = Cutfit_bsp.Faults
module Check = Cutfit_check
module Kernel_check = Cutfit_check.Kernel_check
module Pagerank = Cutfit_algo.Pagerank
module Cc = Cutfit_algo.Connected_components
module Tr = Cutfit_algo.Triangle_count
module Sssp = Cutfit_algo.Sssp
module B1 = Bigarray.Array1

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let cluster = Test_util.tiny_cluster ()
let np = cluster.Cluster.num_partitions

let pg_of g =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g in
  Pgraph.build g ~num_partitions:np a

let g = Test_util.random_graph ~seed:424L ~n:200 ~m:1400
let pg = pg_of g
let csr = Csr.build pg
let domains_counts = [ 1; 2; 4 ]

(* --- structural round-trip ---------------------------------------- *)

let test_roundtrip_sizes () =
  checki "vertices" (Graph.num_vertices g) csr.Csr.num_vertices;
  checki "edges" (Graph.num_edges g) csr.Csr.num_edges;
  checki "partitions" (Pgraph.num_partitions pg) csr.Csr.num_partitions;
  checki "slots" (Pgraph.total_replicas pg) csr.Csr.num_slots;
  checki "edge offsets end" csr.Csr.num_edges (B1.get csr.Csr.part_off csr.Csr.num_partitions);
  checki "slot offsets end" csr.Csr.num_slots (B1.get csr.Csr.slot_off csr.Csr.num_partitions)

let test_roundtrip_edges_in_partition_order () =
  (* The flat edge arrays replay the partitioned graph's edge order
     exactly: same partition ranges, same order, same endpoints. *)
  let part_off = Pgraph.part_off pg and part_edges = Pgraph.part_edges pg in
  for p = 0 to csr.Csr.num_partitions - 1 do
    let e = ref (B1.get csr.Csr.part_off p) in
    for i = part_off.(p) to part_off.(p + 1) - 1 do
      let edge = part_edges.(i) in
      checki "src" (Graph.edge_src g edge) (B1.get csr.Csr.edge_src !e);
      checki "dst" (Graph.edge_dst g edge) (B1.get csr.Csr.edge_dst !e);
      incr e
    done;
    checki "partition edge count" (B1.get csr.Csr.part_off (p + 1)) !e
  done

(* A graph over three reduce chunks whose last one is partial, with
   isolated top ids and more partitions than most partitions have
   edges, so some (partition, chunk) groups are empty and group
   boundaries fall everywhere. *)
let chunk_np = 512

let chunk_pg =
  let _, edges = Test_util.edges_of (Test_util.random_graph ~seed:425L ~n:9_900 ~m:20_000) in
  let g = Test_util.graph_of_edges ~n:10_000 edges in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:chunk_np g in
  Pgraph.build g ~num_partitions:chunk_np a

let chunk_csr = Csr.build chunk_pg

let check_slots pg (c : Csr.t) =
  (* Each edge's slots live in its own partition's slot range and map
     back to the edge's endpoints. *)
  for p = 0 to c.Csr.num_partitions - 1 do
    checki "local vertices" (Pgraph.local_vertices pg p)
      (B1.get c.Csr.slot_off (p + 1) - B1.get c.Csr.slot_off p);
    for e = B1.get c.Csr.part_off p to B1.get c.Csr.part_off (p + 1) - 1 do
      let check_slot name slot v =
        checkb (name ^ " slot in partition range") true
          (slot >= B1.get c.Csr.slot_off p && slot < B1.get c.Csr.slot_off (p + 1));
        checki (name ^ " slot vertex") v (B1.get c.Csr.slot_vertex slot)
      in
      check_slot "src" (B1.get c.Csr.src_slot e) (B1.get c.Csr.edge_src e);
      check_slot "dst" (B1.get c.Csr.dst_slot e) (B1.get c.Csr.edge_dst e)
    done
  done

let check_groups (c : Csr.t) =
  (* Group (p, ch) lists, in slot order, exactly partition p's distinct
     endpoints in chunk ch, in the order p's edges first touch them;
     the groups tile the slot space and each partition's groups tile
     its slot range. *)
  let nc = c.Csr.num_chunks in
  checki "chunks" ((c.Csr.num_vertices + Csr.chunk - 1) / Csr.chunk) nc;
  checki "group table size" ((c.Csr.num_partitions * nc) + 1) (B1.dim c.Csr.group_off);
  checki "last group end" c.Csr.num_slots (B1.get c.Csr.group_off (c.Csr.num_partitions * nc));
  let covered = Array.make c.Csr.num_slots 0 in
  let seen = Array.make c.Csr.num_vertices (-1) in
  for p = 0 to c.Csr.num_partitions - 1 do
    checki "partition groups start at slot_off" (B1.get c.Csr.slot_off p)
      (B1.get c.Csr.group_off (p * nc));
    let first_touch = ref [] in
    for e = B1.get c.Csr.part_off p to B1.get c.Csr.part_off (p + 1) - 1 do
      List.iter
        (fun v ->
          if seen.(v) <> p then begin
            seen.(v) <- p;
            first_touch := v :: !first_touch
          end)
        [ B1.get c.Csr.edge_src e; B1.get c.Csr.edge_dst e ]
    done;
    let first_touch = List.rev !first_touch in
    for ch = 0 to nc - 1 do
      let lo = B1.get c.Csr.group_off ((p * nc) + ch) in
      let hi = B1.get c.Csr.group_off ((p * nc) + ch + 1) in
      checkb "group bounds ordered" true (lo <= hi);
      let group = List.init (hi - lo) (fun i -> B1.get c.Csr.slot_vertex (lo + i)) in
      Alcotest.(check (list int))
        (Printf.sprintf "group (%d, %d)" p ch)
        (List.filter (fun v -> v / Csr.chunk = ch) first_touch)
        group;
      for slot = lo to hi - 1 do
        covered.(slot) <- covered.(slot) + 1
      done
    done
  done;
  checkb "every slot in exactly one group" true (Array.for_all (fun k -> k = 1) covered)

let test_roundtrip_slots () =
  check_slots pg csr;
  check_groups csr;
  checki "three chunks, the last partial" 3 chunk_csr.Csr.num_chunks;
  checkb "isolated top ids" true (Graph.out_degree (Pgraph.graph chunk_pg) 9_999 = 0);
  checkb "a partition with fewer edges than partitions" true
    (List.exists
       (fun p -> Pgraph.num_edges_of_partition chunk_pg p < chunk_np)
       (List.init chunk_np Fun.id));
  check_slots chunk_pg chunk_csr;
  check_groups chunk_csr

let test_out_degrees () =
  for v = 0 to csr.Csr.num_vertices - 1 do
    checki "out degree" (Graph.out_degree g v) (B1.get csr.Csr.out_deg v)
  done

(* --- bit-identical results across engines and domain counts ------- *)

let no_violations name vs =
  match vs with
  | [] -> ()
  | _ -> Alcotest.failf "%s: %a" name Check.Violation.pp_list vs

(* Every algorithm in the table (or the one named [only]) against its
   boxed oracle at 1, 2 and 4 domains, two runs per count, on one Csr. *)
let engines_clean ?(cluster = cluster) ?(seed = 11L) ?only what pg =
  let landmarks = lazy (Sssp.pick_landmarks ~seed ~count:3 (Pgraph.graph pg)) in
  let p = Cutfit.Pipeline.of_pgraph ~cluster ~partitioner:(Partitioner.Hash Strategy.Rvc) pg in
  let c = Csr.build pg in
  List.iter
    (fun algorithm ->
      let (Cutfit.Pipeline.Algo a) = Cutfit.Pipeline.algo ~landmarks algorithm in
      let k = a.Cutfit.Pipeline.kernel in
      if Option.fold ~none:true ~some:(String.equal k.Kernel_check.label) only then
        no_violations
          (Printf.sprintf "%s %s" k.Kernel_check.label what)
          (Kernel_check.engines k ~oracle:(Cutfit.Pipeline.oracle a p)
             ~plain:(lazy (Kernel_check.plain k c))
             ~domains_counts c))
    Cutfit.Advisor.[ Pagerank; Connected_components; Shortest_paths; Triangle_count ]

let test_engines_pagerank () = engines_clean ~only:"pagerank" "at 1/2/4 domains" pg
let test_engines_cc () = engines_clean ~only:"connected-components" "at 1/2/4 domains" pg
let test_engines_triangles () = engines_clean ~only:"triangle-count" "at 1/2/4 domains" pg
let test_engines_sssp () = engines_clean ~only:"shortest-paths" "at 1/2/4 domains" pg

let test_engines_triangles_multigraph () =
  (* Parallel, reciprocal and self-loop edges: [symmetrize] deduplicates
     for real and the canonical-edge rule counts parallel copies. *)
  let mg = Test_util.random_multigraph ~seed:77L ~n:40 ~m:600 in
  let edges = List.init (Graph.num_edges mg) (fun i -> (Graph.edge_src mg i, Graph.edge_dst mg i)) in
  checkb "has self-loops" true (List.exists (fun (s, d) -> s = d) edges);
  checkb "has reciprocal edges" true (List.exists (fun (s, d) -> s <> d && List.mem (d, s) edges) edges);
  checkb "has parallel edges" true (List.length (List.sort_uniq compare edges) < List.length edges);
  let mpg = pg_of mg in
  checkb "parallel copies count a triangle again" true
    (snd (Tr.run_csr (Csr.build mpg)) > Cutfit_graph.Triangles.count mg);
  engines_clean "on a multigraph" mpg

(* Multigraphs for the triangle kernel: random edges with self-loops,
   parallel and reciprocal copies, a few isolated top ids, and vertex 0
   as a hub joined to most vertices by 0-3 edges in either direction. *)
let tr_multigraph_gen =
  let open QCheck2.Gen in
  int_range 1 30 >>= fun n ->
  int_range 0 3 >>= fun isolated ->
  int_range 0 90 >>= fun m ->
  list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) >>= fun edges ->
  list_repeat n (int_range 0 5) >|= fun hub ->
  let spoke v = function
    | 0 -> []
    | 1 -> [ (0, v) ]
    | 2 -> [ (v, 0) ]
    | 3 -> [ (0, v); (0, v) ]
    | 4 -> [ (0, v); (v, 0) ]
    | _ -> [ (v, 0); (v, 0); (0, v) ]
  in
  (n + isolated, edges @ List.concat (List.mapi spoke hub))

let test_tr_csr_oracles =
  Test_util.qtest ~count:60 "triangles: csr = brute force = boxed on multigraphs"
    ~print:Test_util.print_small_graph tr_multigraph_gen (fun ((n, edges) as case) ->
      let g = Test_util.graph_of_edges ~n edges in
      let expect = Test_util.brute_force_triangles case in
      List.for_all
        (fun num_partitions ->
          let cluster = Test_util.tiny_cluster ~num_partitions () in
          let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions g in
          let pg = Pgraph.build g ~num_partitions a in
          let boxed = Tr.run ~cluster pg in
          let c = Csr.build pg in
          (boxed.Tr.per_vertex, boxed.Tr.total) = expect
          && List.for_all (fun domains -> Tr.run_csr ~domains c = expect) domains_counts)
        [ 1; 3; 16 ])

let test_engines_triangles_chunks () =
  (* Over 4096 vertices the triangle kernel claims several vertex
     ranges, so at 2 and 4 domains the triangles really spread over
     worker arrays. *)
  let mpg = pg_of (Test_util.random_multigraph ~seed:78L ~n:10_000 ~m:60_000) in
  checkb "triangles found" true (snd (Tr.run_csr (Csr.build mpg)) > 0);
  engines_clean "over vertex chunks" mpg

let test_engines_over_chunks () =
  (* Three chunks, empty groups and isolated top ids: a reduce that
     misses a group boundary or folds partitions out of order changes
     ranks, labels, distances or counts. *)
  let cluster = Test_util.tiny_cluster ~num_partitions:chunk_np () in
  engines_clean ~cluster ~seed:12L "over vertex chunks" chunk_pg

let test_engines_wrong_oracle () =
  (* A wrong oracle fires boxed-vs-csr once per domain count, naming
     the count, and nothing else. *)
  let c = Csr.build pg in
  let vs =
    Kernel_check.engines Kernel_check.pagerank ~oracle:"not-a-digest"
      ~plain:(lazy (Kernel_check.plain Kernel_check.pagerank c))
      ~domains_counts c
  in
  Alcotest.(check (list string))
    "rules" [ "boxed-vs-csr"; "boxed-vs-csr"; "boxed-vs-csr" ]
    (List.map (fun v -> v.Check.Violation.rule) vs);
  List.iter2
    (fun domains v ->
      let named = Printf.sprintf "(domains=%d)" domains in
      checkb ("names " ^ named) true (Test_util.contains named v.Check.Violation.detail))
    domains_counts vs

let test_engines_oom_fallback () =
  (* An executor too small for one vertex aborts the sanitized run out
     of memory; its partial values cannot be the oracle, so the engines
     suite falls back to a boxed run on an unconstrained cluster and
     stays clean. *)
  let cluster = { cluster with Cluster.executor_memory_bytes = 1.0 } in
  let partitioner = Partitioner.Hash Strategy.Rvc in
  checkb "sanitized run is out of memory" true
    ((Pagerank.run ~cluster pg).Pagerank.trace.Cutfit_bsp.Trace.outcome
    = Cutfit_bsp.Trace.Out_of_memory);
  let report =
    Cutfit.Sanitize.check_run ~cluster ~partitioner ~engine_domains:domains_counts
      ~algorithm:Cutfit.Advisor.Pagerank g
  in
  checki "engines clean" 0 (List.assoc "engines" report.Cutfit.Sanitize.suites)

let test_pagerank_bits_across_domains () =
  (* The raw float bits, not just digests: the partition-indexed
     reduction order makes float addition reproducible. *)
  let boxed = (Pagerank.run ~iterations:7 ~cluster pg).Pagerank.ranks in
  List.iter
    (fun domains ->
      let ranks = Pagerank.run_csr ~iterations:7 ~domains csr in
      Array.iteri
        (fun v r ->
          checkb "identical bits" true
            (Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float boxed.(v))))
        ranks)
    domains_counts

let test_run_twice_reuses_buffers () =
  (* Back-to-back runs on one Csr.t must digest identically — the
     has-byte discipline leaves no stale occupancy behind. *)
  let d () = Check.Fault_check.float_attrs_digest (Pagerank.run_csr ~domains:2 csr) in
  checks "stable digest" (d ()) (d ());
  let dc () = Check.Fault_check.int_attrs_digest (Cc.run_csr ~domains:4 csr) in
  checks "cc after pagerank on same buffers" (dc ()) (dc ())

let test_rounds_reported () =
  let rounds = ref 0 in
  let chain = pg_of (Test_util.graph_of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]) in
  let c = Csr.build chain in
  let _ = Cc.run_csr ~iterations:50 ~rounds c in
  (* Labels flow down the chain one hop per round, then one quiet round. *)
  checki "rounds to converge" 6 !rounds

(* --- equivalence under an injected fault schedule ------------------ *)

let test_fault_schedule_equivalence () =
  (* Faults perturb only the boxed engine's time accounting; the CSR
     kernel must match the faulty run's values bit-for-bit too. *)
  let faults = Faults.config ~seed:5 "straggler@2:x3,loss@3:r2,crash@4:e1" in
  let what_if = { Cutfit_bsp.Pricer.static with faults = Some faults } in
  let faulty = Pagerank.run ~iterations:8 ~what_if ~cluster pg in
  let csr_digest = Check.Fault_check.float_attrs_digest (Pagerank.run_csr ~iterations:8 csr) in
  checks "csr = faulty boxed pagerank"
    (Check.Fault_check.float_attrs_digest faulty.Pagerank.ranks)
    csr_digest;
  let faulty_cc = Cc.run ~iterations:10 ~what_if ~cluster pg in
  checks "csr = faulty boxed cc"
    (Check.Fault_check.int_attrs_digest faulty_cc.Cc.labels)
    (Check.Fault_check.int_attrs_digest (Cc.run_csr ~iterations:10 ~domains:2 csr))

(* --- the multicore driver itself ----------------------------------- *)

let test_par_exec_iter_covers_items () =
  Par_exec.with_pool ~domains:4 (fun pool ->
      let hits = Array.make 1000 0 in
      Par_exec.iter pool ~n:1000 (fun _ i -> hits.(i) <- hits.(i) + 1);
      checkb "each item exactly once" true (Array.for_all (fun h -> h = 1) hits);
      (* The pool survives across epochs. *)
      let sum = Atomic.make 0 in
      Par_exec.iter pool ~n:4 (fun _ i -> ignore (Atomic.fetch_and_add sum (i + 1)));
      checki "all items ran" 10 (Atomic.get sum))

let test_par_exec_propagates_exceptions () =
  Par_exec.with_pool ~domains:2 (fun pool ->
      match Par_exec.iter pool ~n:8 (fun _ i -> if i = 5 then failwith "boom") with
      | () -> checkb "should have raised" false true
      | exception Failure m -> checks "original exception" "boom" m);
  (* And the inline path. *)
  Par_exec.with_pool ~domains:1 (fun pool ->
      match Par_exec.iter pool ~n:8 (fun _ i -> if i = 5 then failwith "boom") with
      | () -> checkb "should have raised" false true
      | exception Failure m -> checks "original exception" "boom" m)

let suite =
  [
    Alcotest.test_case "csr round-trip: sizes" `Quick test_roundtrip_sizes;
    Alcotest.test_case "csr round-trip: edge order" `Quick test_roundtrip_edges_in_partition_order;
    Alcotest.test_case "csr round-trip: slots + chunk groups" `Quick test_roundtrip_slots;
    Alcotest.test_case "csr round-trip: out degrees" `Quick test_out_degrees;
    Alcotest.test_case "engines: pagerank boxed=csr at 1/2/4 domains" `Quick test_engines_pagerank;
    Alcotest.test_case "engines: cc boxed=csr at 1/2/4 domains" `Quick test_engines_cc;
    Alcotest.test_case "engines: triangles boxed=csr at 1/2/4 domains" `Quick
      test_engines_triangles;
    Alcotest.test_case "engines: triangles boxed=csr on a multigraph" `Quick
      test_engines_triangles_multigraph;
    test_tr_csr_oracles;
    Alcotest.test_case "engines: triangles boxed=csr over vertex chunks" `Quick
      test_engines_triangles_chunks;
    Alcotest.test_case "engines: sssp boxed=csr at 1/2/4 domains" `Quick test_engines_sssp;
    Alcotest.test_case "engines: pagerank/cc/sssp boxed=csr over vertex chunks" `Quick
      test_engines_over_chunks;
    Alcotest.test_case "pagerank bits identical across domains" `Quick
      test_pagerank_bits_across_domains;
    Alcotest.test_case "run twice reuses buffers cleanly" `Quick test_run_twice_reuses_buffers;
    Alcotest.test_case "rounds out-parameter" `Quick test_rounds_reported;
    Alcotest.test_case "fault schedule leaves values csr-identical" `Quick
      test_fault_schedule_equivalence;
    Alcotest.test_case "par_exec covers every item once" `Quick test_par_exec_iter_covers_items;
    Alcotest.test_case "par_exec propagates exceptions" `Quick test_par_exec_propagates_exceptions;
    Alcotest.test_case "engines: wrong oracle names each domain count" `Quick
      test_engines_wrong_oracle;
    Alcotest.test_case "engines: out-of-memory run falls back to one boxed oracle" `Quick
      test_engines_oom_fallback;
  ]
