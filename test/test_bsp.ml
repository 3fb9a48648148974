module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Pgraph = Cutfit_bsp.Pgraph
module Pregel = Cutfit_bsp.Pregel
module Trace = Cutfit_bsp.Trace
module Pricer = Cutfit_bsp.Pricer
module Event = Cutfit_obs.Event

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let g = Test_util.random_graph ~seed:55L ~n:200 ~m:1500
let cluster = Test_util.tiny_cluster ()
let np = cluster.Cluster.num_partitions

let pg_of strategy =
  let a = Partitioner.assign (Partitioner.Hash strategy) ~num_partitions:np g in
  Pgraph.build g ~num_partitions:np a

let pg = pg_of Strategy.Rvc

(* --- Cluster --- *)

let test_cluster_configs () =
  checki "config i partitions" 128 Cluster.config_i.Cluster.num_partitions;
  checki "config ii partitions" 256 Cluster.config_ii.Cluster.num_partitions;
  checkb "iii faster network" true
    (Cluster.network_bytes_per_s Cluster.config_iii > Cluster.network_bytes_per_s Cluster.config_ii);
  checkb "iv faster storage" true
    (Cluster.storage_bytes_per_s Cluster.config_iv > Cluster.storage_bytes_per_s Cluster.config_iii);
  checkb "find by roman" true (Cluster.find "(iii)" == Cluster.config_iii);
  checkb "find by count" true (Cluster.find "128" == Cluster.config_i);
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Cluster.find "x"))

let test_executor_round_robin () =
  (* a runtime without scale events places partitions statically *)
  let rt = Cutfit_bsp.Elastic.runtime ~executors:Cluster.config_i.Cluster.executors () in
  checki "p0 -> e0" 0 (Cutfit_bsp.Elastic.exec_of rt 0);
  checki "p5 -> e1" 1 (Cutfit_bsp.Elastic.exec_of rt 5);
  checki "total cores" 128 (Cluster.total_cores Cluster.config_i)

(* --- Cost model --- *)

let test_makespan () =
  let near a b = abs_float (a -. b) < 1e-12 in
  checkb "bounded by max" true (near (Cost_model.makespan ~work:[| 10.0; 1.0 |] ~cores:4) 10.0);
  checkb "bounded by sum/cores" true
    (near (Cost_model.makespan ~work:[| 1.0; 1.0; 1.0; 1.0 |] ~cores:2) 2.0);
  Alcotest.check_raises "zero cores" (Invalid_argument "Cost_model.makespan: cores <= 0")
    (fun () -> ignore (Cost_model.makespan ~work:[| 1.0 |] ~cores:0))

(* --- Pgraph --- *)

let test_pgraph_edge_partition_totals () =
  let total = ref 0 in
  for p = 0 to np - 1 do
    total := !total + Pgraph.num_edges_of_partition pg p
  done;
  checki "all edges placed" (Graph.num_edges g) !total

let test_pgraph_edges_match_assignment () =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g in
  let ok = ref true in
  for p = 0 to np - 1 do
    Array.iter (fun e -> if a.(e) <> p then ok := false) (Pgraph.edges_of_partition pg p)
  done;
  checkb "assignment respected" true !ok

let test_pgraph_routing_consistency () =
  (* A vertex's replica set must be exactly the partitions holding its
     edges. *)
  let n = Graph.num_vertices g in
  let expected = Array.make n [] in
  let part_off = Pgraph.part_off pg and part_edges = Pgraph.part_edges pg in
  for p = 0 to np - 1 do
    for i = part_off.(p) to part_off.(p + 1) - 1 do
      let e = part_edges.(i) in
      let add v = if not (List.mem p expected.(v)) then expected.(v) <- p :: expected.(v) in
      add (Graph.edge_src g e);
      add (Graph.edge_dst g e)
    done
  done;
  for v = 0 to n - 1 do
    let routed = Array.to_list (Pgraph.replicas pg v) in
    let want = List.sort compare expected.(v) in
    Alcotest.(check (list int)) "replica set" want routed
  done

let test_pgraph_metrics_agree () =
  let m = Pgraph.metrics pg in
  checki "total replicas = comm + non_cut"
    (m.Metrics.comm_cost + m.Metrics.non_cut)
    (Pgraph.total_replicas pg);
  let n = Graph.num_vertices g in
  let from_routing = ref 0 in
  for v = 0 to n - 1 do
    from_routing := !from_routing + Pgraph.replica_count pg v
  done;
  checki "routing total" (Pgraph.total_replicas pg) !from_routing

let test_pgraph_masters_in_range () =
  for v = 0 to Graph.num_vertices g - 1 do
    let m = Pgraph.master pg v in
    checkb "master in range" true (m >= 0 && m < np)
  done

let test_pgraph_rejects_bad_assignment () =
  Alcotest.check_raises "length" (Invalid_argument "Pgraph.build: assignment length mismatch")
    (fun () -> ignore (Pgraph.build g ~num_partitions:np [| 0 |]));
  let bad = Array.make (Graph.num_edges g) np in
  Alcotest.check_raises "range" (Invalid_argument "Pgraph.build: partition out of range")
    (fun () -> ignore (Pgraph.build g ~num_partitions:np bad))

(* --- Pregel --- *)

(* Checkpoint every [k] supersteps, nothing else perturbed. *)
let every k = { Pricer.static with checkpoint_every = Some k }

(* Minimal label-propagation program used to exercise the engine. *)
let min_label_program =
  {
    Test_util.init = (fun v -> v);
    initial_msg = max_int;
    vprog = (fun _ l m -> min l m);
    send =
      (fun ~src:_ ~dst:_ ~src_attr ~dst_attr ~emit ->
        if src_attr < dst_attr then emit Pregel.To_dst src_attr
        else if dst_attr < src_attr then emit Pregel.To_src dst_attr);
    merge = min;
    state_bytes = 8;
    msg_bytes = 8;
  }

let test_pregel_converges_to_components () =
  let r = Test_util.run_boxed ~cluster pg min_label_program in
  let expected, _ = Cutfit_graph.Components.weak g in
  Alcotest.(check (array int)) "labels" expected r.Test_util.attrs;
  checkb "completed" true (r.Test_util.trace.Trace.outcome = Trace.Completed)

let test_pregel_max_supersteps () =
  let r = Test_util.run_boxed ~max_supersteps:1 ~cluster pg min_label_program in
  checkb "capped" true (r.Test_util.trace.Trace.outcome = Trace.Max_supersteps)

let test_pregel_trace_sanity () =
  let r = Test_util.run_boxed ~cluster pg min_label_program in
  let t = r.Test_util.trace in
  checkb "positive total" true (t.Trace.total_s > 0.0);
  checkb "load positive" true (t.Trace.load_s > 0.0);
  List.iter
    (fun (s : Trace.superstep) ->
      checkb "nonneg compute" true (s.Event.compute_s >= 0.0);
      checkb "nonneg network" true (s.Event.network_s >= 0.0);
      checkb "time >= overhead" true (s.Event.time_s >= s.Event.overhead_s))
    t.Trace.supersteps;
  (* First trace entry is the build stage. *)
  (match t.Trace.supersteps with
  | first :: _ -> checki "build stage" (-1) first.Event.step
  | [] -> Alcotest.fail "no supersteps");
  checkb "summary mentions supersteps" true
    (String.length (Format.asprintf "%a" Trace.pp_summary t) > 0)

let test_pregel_scale_scales_time () =
  let t1 = (Test_util.run_boxed ~cluster pg min_label_program).Test_util.trace in
  let t2 = (Test_util.run_boxed ~scale:10.0 ~cluster pg min_label_program).Test_util.trace in
  checkb "bigger scale, bigger time" true (t2.Trace.total_s > t1.Trace.total_s)

let test_pregel_driver_oom () =
  let oom_cluster = { cluster with Cluster.driver_memory_bytes = 1.0 } in
  let r = Test_util.run_boxed ~cluster:oom_cluster pg min_label_program in
  checkb "OOM" true (r.Test_util.trace.Trace.outcome = Trace.Out_of_memory);
  checkb "not completed" false (Trace.completed r.Test_util.trace)

let test_pregel_executor_oom () =
  let oom_cluster = { cluster with Cluster.executor_memory_bytes = 1.0 } in
  let r = Test_util.run_boxed ~cluster:oom_cluster pg min_label_program in
  checkb "OOM" true (r.Test_util.trace.Trace.outcome = Trace.Out_of_memory)

let test_pregel_partition_count_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Pregel.run: cluster and partitioned graph disagree on partition count")
    (fun () ->
      ignore (Test_util.run_boxed ~cluster:(Test_util.tiny_cluster ~num_partitions:4 ()) pg min_label_program))

let test_pregel_message_counts_positive () =
  let r = Test_util.run_boxed ~cluster pg min_label_program in
  checkb "messages flowed" true (Trace.total_messages r.Test_util.trace > 0)

(* Concatenation is not commutative, so a vertex's delivered message
   spells out the order in which the engine merged its messages: a left
   fold in edge order within each partition, then across partitions in
   ascending index order. Each message names its edge, and the vertex
   program keeps every delivered message, newest first. *)
let test_pregel_merge_order () =
  let n = Graph.num_vertices g in
  let code src dst = (src * n) + dst in
  let to_src src dst = (src + dst) mod 3 = 0 in
  let program =
    {
      Test_util.init = (fun _ -> []);
      initial_msg = [];
      vprog = (fun _ delivered m -> m :: delivered);
      send =
        (fun ~src ~dst ~src_attr:_ ~dst_attr:_ ~emit ->
          emit Pregel.To_dst [ code src dst ];
          if to_src src dst then emit Pregel.To_src [ code src dst ]);
      merge = ( @ );
      state_bytes = 8;
      msg_bytes = 8;
    }
  in
  let supersteps = 3 in
  let r = Test_util.run_boxed ~max_supersteps:supersteps ~cluster pg program in
  checkb "capped" true (r.Test_util.trace.Trace.outcome = Trace.Max_supersteps);
  let expected = Array.make n [ [] ] in
  let active = Array.make n true in
  let most_feeders = ref 0 and total = ref 0 in
  for _ = 1 to supersteps do
    let delivered = Array.make n [] and feeders = Array.make n 0 in
    for p = 0 to np - 1 do
      let local = Array.make n [] in
      Array.iter
        (fun e ->
          let src = Graph.edge_src g e and dst = Graph.edge_dst g e in
          if active.(src) || active.(dst) then begin
            local.(dst) <- local.(dst) @ [ code src dst ];
            if to_src src dst then local.(src) <- local.(src) @ [ code src dst ]
          end)
        (Pgraph.edges_of_partition pg p);
      Array.iteri
        (fun v m ->
          if m <> [] then begin
            delivered.(v) <- delivered.(v) @ m;
            feeders.(v) <- feeders.(v) + 1
          end)
        local
    done;
    Array.iteri
      (fun v m ->
        active.(v) <- m <> [];
        most_feeders := max !most_feeders feeders.(v);
        total := !total + List.length m;
        if m <> [] then expected.(v) <- m :: expected.(v))
      delivered
  done;
  checkb "reference delivers messages" true (!total > 0);
  checkb "a vertex is fed by three partitions" true (!most_feeders >= 3);
  Array.iteri
    (fun v want -> Alcotest.(check (list (list int))) (Printf.sprintf "vertex %d" v) want r.Test_util.attrs.(v))
    expected

let test_network_faster_cluster_not_slower () =
  (* Same partitioning on a 40x network must not be slower. *)
  let fast = { cluster with Cluster.network_gbps = 40.0 } in
  let t_slow = (Test_util.run_boxed ~scale:1000.0 ~cluster pg min_label_program).Test_util.trace in
  let t_fast = (Test_util.run_boxed ~scale:1000.0 ~cluster:fast pg min_label_program).Test_util.trace in
  checkb "not slower" true (t_fast.Trace.total_s <= t_slow.Trace.total_s +. 1e-9)

(* The programs own their state in flat arrays, so a run allocates per
   superstep (the pricer's records, the trace) and per vertex at the
   end, not per message: under one minor word per active-edge visit. A
   boxed float per share, or a fresh vector per SSSP message, costs
   several. *)
let test_pregel_allocates_per_step () =
  let g = Cutfit_gen.Datasets.generate (Cutfit_gen.Datasets.find "youtube") in
  let cluster = Cluster.config_i in
  let np = cluster.Cluster.num_partitions in
  let pg = Pgraph.build g ~num_partitions:np (Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g) in
  let words_per_visit name run =
    let before = Gc.minor_words () in
    let trace = run () in
    let words = Gc.minor_words () -. before in
    let visits = List.fold_left (fun acc s -> acc + s.Event.active_edges) 0 trace.Trace.supersteps in
    checkb (name ^ " visits edges") true (visits > 0);
    let per = words /. float_of_int visits in
    checkb (Printf.sprintf "%s: %.3f minor words per active-edge visit < 1" name per) true (per < 1.0)
  in
  words_per_visit "PR" (fun () -> (Cutfit_algo.Pagerank.run ~iterations:10 ~cluster pg).Cutfit_algo.Pagerank.trace);
  words_per_visit "CC" (fun () -> (Cutfit_algo.Connected_components.run ~cluster pg).Cutfit_algo.Connected_components.trace);
  let landmarks = Cutfit_algo.Sssp.pick_landmarks ~seed:1L ~count:3 g in
  words_per_visit "SSSP k=3" (fun () -> (Cutfit_algo.Sssp.run ~cluster ~landmarks pg).Cutfit_algo.Sssp.trace)

let prop_pregel_cc_matches_reference =
  Test_util.qtest ~count:30 "pregel min-label = union-find on random graphs"
    ~print:Test_util.print_small_graph Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      if Graph.num_edges g = 0 then true
      else begin
        let cluster = Test_util.tiny_cluster ~num_partitions:4 () in
        let a = Partitioner.assign (Partitioner.Hash Strategy.Crvc) ~num_partitions:4 g in
        let pg = Pgraph.build g ~num_partitions:4 a in
        let r = Test_util.run_boxed ~cluster pg min_label_program in
        r.Test_util.attrs = fst (Cutfit_graph.Components.weak g)
      end)

let suite =
  [
    Alcotest.test_case "cluster configs" `Quick test_cluster_configs;
    Alcotest.test_case "executor round robin" `Quick test_executor_round_robin;
    Alcotest.test_case "makespan" `Quick test_makespan;
    Alcotest.test_case "pgraph edge totals" `Quick test_pgraph_edge_partition_totals;
    Alcotest.test_case "pgraph edges match assignment" `Quick test_pgraph_edges_match_assignment;
    Alcotest.test_case "pgraph routing consistency" `Quick test_pgraph_routing_consistency;
    Alcotest.test_case "pgraph metrics agree" `Quick test_pgraph_metrics_agree;
    Alcotest.test_case "pgraph masters in range" `Quick test_pgraph_masters_in_range;
    Alcotest.test_case "pgraph rejects bad assignment" `Quick test_pgraph_rejects_bad_assignment;
    Alcotest.test_case "pregel converges to components" `Quick test_pregel_converges_to_components;
    Alcotest.test_case "pregel max supersteps" `Quick test_pregel_max_supersteps;
    Alcotest.test_case "pregel trace sanity" `Quick test_pregel_trace_sanity;
    Alcotest.test_case "pregel scale" `Quick test_pregel_scale_scales_time;
    Alcotest.test_case "pregel driver OOM" `Quick test_pregel_driver_oom;
    Alcotest.test_case "pregel executor OOM" `Quick test_pregel_executor_oom;
    Alcotest.test_case "pregel partition mismatch" `Quick test_pregel_partition_count_mismatch;
    Alcotest.test_case "pregel messages flowed" `Quick test_pregel_message_counts_positive;
    Alcotest.test_case "pregel merge order" `Quick test_pregel_merge_order;
    Alcotest.test_case "faster network not slower" `Quick test_network_faster_cluster_not_slower;
    prop_pregel_cc_matches_reference;
  ]

(* --- checkpointing --- *)

let test_checkpoint_prevents_driver_oom () =
  (* A driver small enough to OOM after ~12 supersteps survives when
     lineage is truncated every 5. *)
  let n = 100 in
  let path =
    Test_util.graph_of_edges ~n
      (List.concat_map (fun i -> [ (i, i + 1); (i + 1, i) ]) (List.init (n - 1) Fun.id))
  in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np path in
  let pg = Pgraph.build path ~num_partitions:np a in
  let meta = Cost_model.default.Cost_model.driver_meta_per_task_bytes in
  let small = { cluster with Cluster.driver_memory_bytes = 12.0 *. 8.0 *. meta } in
  let without = Test_util.run_boxed ~cluster:small pg min_label_program in
  checkb "OOMs without checkpointing" true
    (without.Test_util.trace.Trace.outcome = Trace.Out_of_memory);
  let with_ckpt = Test_util.run_boxed ~what_if:(every 5) ~cluster:small pg min_label_program in
  checkb "completes with checkpointing" true
    (with_ckpt.Test_util.trace.Trace.outcome = Trace.Completed);
  checkb "checkpoints taken" true (with_ckpt.Test_util.trace.Trace.checkpoints > 0);
  checkb "checkpoints cost time" true (with_ckpt.Test_util.trace.Trace.checkpoint_s > 0.0);
  Alcotest.(check (array int)) "still correct"
    (fst (Cutfit_graph.Components.weak path))
    with_ckpt.Test_util.attrs

let test_checkpoint_costs_time () =
  let plain = Test_util.run_boxed ~cluster pg min_label_program in
  let ckpt = Test_util.run_boxed ~what_if:(every 1) ~cluster pg min_label_program in
  checkb "same answer" true (plain.Test_util.attrs = ckpt.Test_util.attrs);
  checkb "checkpointing is not free" true
    (ckpt.Test_util.trace.Trace.total_s > plain.Test_util.trace.Trace.total_s)

let suite =
  suite
  @ [
      Alcotest.test_case "checkpoint prevents driver OOM" `Quick test_checkpoint_prevents_driver_oom;
      Alcotest.test_case "checkpoint costs time" `Quick test_checkpoint_costs_time;
    ]

(* --- GAS engine --- *)

module Gas = Cutfit_bsp.Gas

let gas_min_label =
  (* Data-driven min-label propagation: vertices deactivate after
     applying; scatter signals reactivate the neighbourhood. *)
  {
    Gas.init = (fun v -> v);
    direction = Gas.Gather_both;
    gather =
      (fun ~src ~dst ~src_attr ~dst_attr ~target ->
        if target = dst then Some src_attr else if target = src then Some dst_attr else None);
    sum = min;
    apply =
      (fun _ label total ->
        match total with Some t -> (min label t, false) | None -> (label, false));
    state_bytes = 8;
    gather_bytes = 8;
  }

let test_gas_components () =
  let r = Gas.run ~cluster pg gas_min_label in
  Alcotest.(check (array int)) "labels" (fst (Cutfit_graph.Components.weak g)) r.Gas.attrs;
  checkb "completed" true (r.Gas.trace.Trace.outcome = Trace.Completed)

let test_gas_pagerank_matches_pregel () =
  let pregel = Cutfit_algo.Pagerank.run ~iterations:8 ~cluster pg in
  let gas = Cutfit_algo.Pagerank.run_gas ~iterations:8 ~cluster pg in
  Array.iteri
    (fun v rank ->
      checkb "rank close" true
        (abs_float (rank -. pregel.Cutfit_algo.Pagerank.ranks.(v)) < 1e-9))
    gas.Cutfit_algo.Pagerank.ranks

let test_gas_trace_comparable () =
  let r = Gas.run ~cluster pg gas_min_label in
  checkb "positive time" true (r.Gas.trace.Trace.total_s > 0.0);
  checkb "messages flowed" true (Trace.total_messages r.Gas.trace > 0)

let test_gas_partition_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Gas.run: cluster and partitioned graph disagree on partition count")
    (fun () ->
      ignore (Gas.run ~cluster:(Test_util.tiny_cluster ~num_partitions:4 ()) pg gas_min_label))

let test_gas_iteration_cap () =
  let path = Test_util.graph_of_edges ~n:30 (List.init 29 (fun i -> (i, i + 1))) in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np path in
  let pg = Pgraph.build path ~num_partitions:np a in
  let r = Gas.run ~max_iterations:2 ~cluster pg gas_min_label in
  checkb "capped" true (r.Gas.trace.Trace.outcome = Trace.Max_supersteps)

let suite =
  suite
  @ [
      Alcotest.test_case "GAS components" `Quick test_gas_components;
      Alcotest.test_case "GAS pagerank = Pregel pagerank" `Quick test_gas_pagerank_matches_pregel;
      Alcotest.test_case "GAS trace comparable" `Quick test_gas_trace_comparable;
      Alcotest.test_case "GAS partition mismatch" `Quick test_gas_partition_mismatch;
      Alcotest.test_case "GAS iteration cap" `Quick test_gas_iteration_cap;
    ]

(* --- superstep pricer --- *)

(* Jitter-free constants, so a priced step has a closed form. *)
let flat_cost = { Cost_model.default with Cost_model.gc_jitter = 0.0 }
let checkf what want got = Alcotest.(check (float 0.0)) what want got

let test_pricer_closed_form () =
  (* Tiny cluster: 8 partitions round-robin over 2 executors of 4 cores. *)
  let pr = Pricer.create ~cost:flat_cost ~label:"test" ~state_bytes:8 ~cluster pg in
  let bandwidth = Cluster.network_bytes_per_s cluster in
  let overhead =
    flat_cost.Cost_model.superstep_barrier_s
    +. (float_of_int np *. flat_cost.Cost_model.task_dispatch_s)
  in
  let step ~s ~egress =
    let c = Pricer.begin_step pr ~step:s in
    (* executor 0: one 4 s task; executor 1: four 2 s tasks on 4 cores *)
    c.Pricer.work.(0) <- 4.0;
    List.iter (fun p -> c.Pricer.work.(p) <- 2.0) [ 1; 3; 5; 7 ];
    c.Pricer.bytes_out.(0) <- egress /. 2.0;
    c.Pricer.bytes_out.(1) <- egress;
    checkb "no verdict" true
      (Pricer.superstep pr ~step:s
         { c with Pricer.messages = 7; shuffle_groups = 5; remote_shuffles = 2 }
      = None)
  in
  step ~s:1 ~egress:1e8;
  step ~s:2 ~egress:1e9;
  let t = Pricer.finish pr ~outcome:Trace.Completed ~peak_executor_bytes:0.0 in
  List.iter2
    (fun (s : Trace.superstep) egress ->
      let network = egress /. bandwidth in
      checkf "compute = slowest executor's makespan" 4.0 s.Event.compute_s;
      checkf "network = busiest egress over the NIC" network s.Event.network_s;
      checkf "overhead = barrier + dispatch" overhead s.Event.overhead_s;
      checkf "time = max(compute, network) + overhead"
        (Float.max 4.0 network +. overhead)
        s.Event.time_s;
      checkf "wire = total egress" (egress +. (egress /. 2.0)) s.Event.wire_bytes;
      checki "counts pass through" 7 s.Event.messages;
      checki "remote shuffles pass through" 2 s.Event.remote_shuffles)
    t.Trace.supersteps [ 1e8; 1e9 ];
  checkb "one step compute-bound, one network-bound" true
    (List.map (fun (s : Trace.superstep) -> s.Event.compute_s > s.Event.network_s) t.Trace.supersteps
    = [ true; false ])

let test_pricer_driver_limit () =
  (* Every priced step adds one task's metadata per partition; the build
     (step -1) and steps 0, 1 stay under 3.5 steps' worth, step 2 trips. *)
  let meta = Cost_model.default.Cost_model.driver_meta_per_task_bytes in
  let small = { cluster with Cluster.driver_memory_bytes = 3.5 *. float_of_int np *. meta } in
  let verdicts ?what_if () =
    let pr = Pricer.create ?what_if ~label:"test" ~state_bytes:8 ~cluster:small pg in
    Pricer.build pr;
    let vs =
      List.map
        (fun step ->
          match Pricer.superstep pr ~step (Pricer.begin_step pr ~step) with
          | None -> "-"
          | Some o -> Trace.outcome_name o)
        [ 0; 1; 2; 3 ]
    in
    (vs, Pricer.finish pr ~outcome:Trace.Completed ~peak_executor_bytes:0.0)
  in
  let vs, _ = verdicts () in
  Alcotest.(check (list string)) "trips on the predicted step" [ "-"; "-"; "out-of-memory"; "out-of-memory" ] vs;
  let vs, t = verdicts ~what_if:(every 2) () in
  Alcotest.(check (list string)) "a checkpoint resets the limit" [ "-"; "-"; "-"; "-" ] vs;
  checki "one checkpoint" 1 t.Trace.checkpoints;
  checkf "metadata since the checkpoint" (float_of_int np *. meta) t.Trace.driver_meta_bytes

let test_pricer_rejects_bad_checkpoint () =
  (* k = 0 would divide by zero at [step mod k]; a negative k would
     silently checkpoint every |k| steps. *)
  List.iter
    (fun k ->
      Alcotest.check_raises (Printf.sprintf "checkpoint_every %d" k)
        (Invalid_argument "Pricer.create: checkpoint_every must be >= 1") (fun () ->
          ignore (Pricer.create ~what_if:(every k) ~label:"test" ~state_bytes:8 ~cluster pg)))
    [ 0; -2 ]

let test_pricer_speculation_skips_setup () =
  (* Threshold 1: any skew would launch a clone if speculation were
     evaluated; the build and superstep 0 must never be considered. *)
  let speculation = Cutfit_bsp.Speculation.config ~threshold:1.0 () in
  let pr =
    Pricer.create ~cost:flat_cost
      ~what_if:{ Pricer.static with speculation = Some speculation }
      ~label:"test" ~state_bytes:8 ~cluster pg
  in
  Pricer.build pr;
  List.iter
    (fun step ->
      let c = Pricer.begin_step pr ~step in
      c.Pricer.work.(0) <- 10.0;
      c.Pricer.work.(1) <- 1.0;
      ignore (Pricer.superstep pr ~step c))
    [ 0; 1 ];
  let t = Pricer.finish pr ~outcome:Trace.Completed ~peak_executor_bytes:0.0 in
  Alcotest.(check (list int)) "only step 1 speculated" [ 1 ]
    (List.map (fun (s : Trace.speculation) -> s.Event.step) t.Trace.speculations)

let test_pricer_loss_is_recovery_traffic () =
  let faults = Cutfit_bsp.Faults.config "loss@1:e1:r2" in
  let pr =
    Pricer.create ~what_if:{ Pricer.static with faults = Some faults } ~label:"test" ~state_bytes:8
      ~cluster pg
  in
  let c = Pricer.begin_step pr ~step:1 in
  c.Pricer.bytes_out.(0) <- 3e6;
  c.Pricer.bytes_out.(1) <- 5e6;
  ignore (Pricer.superstep pr ~step:1 c);
  let t = Pricer.finish pr ~outcome:Trace.Completed ~peak_executor_bytes:0.0 in
  match (t.Trace.recoveries, t.Trace.supersteps) with
  | [ r ], [ s ] ->
      Alcotest.(check string) "kind" "shuffle-retry" r.Event.kind;
      checki "lossy executor" 1 r.Event.executor;
      checkf "two retransmissions of its egress" 1e7 r.Event.wire_bytes;
      checkf "superstep wire excludes the retransmission" 8e6 s.Event.wire_bytes;
      checkf "recovery time is itemized" r.Event.recovery_s (Trace.recovery_s t);
      checkb "and charged to the run" true (t.Trace.total_s > s.Event.time_s +. t.Trace.load_s)
  | _ -> Alcotest.fail "expected one step and one shuffle-retry recovery"

let suite =
  suite
  @ [
      Alcotest.test_case "pricer closed form" `Quick test_pricer_closed_form;
      Alcotest.test_case "pricer driver limit" `Quick test_pricer_driver_limit;
      Alcotest.test_case "pricer rejects bad checkpoint" `Quick test_pricer_rejects_bad_checkpoint;
      Alcotest.test_case "pricer speculation skips setup" `Quick test_pricer_speculation_skips_setup;
      Alcotest.test_case "pricer loss is recovery traffic" `Quick test_pricer_loss_is_recovery_traffic;
    ]

(* --- frontier edge cases ---

   Small hand graphs whose active sets are tiny, shrink and grow, so
   the engine's choice between scanning every edge and visiting only
   the frontier's edges is exercised at its edges. Each case is pinned
   by the trace, event-stream and value digests the engine produced
   when it still scanned every edge on every superstep, and its values
   are checked against a sequential reference. *)

module Sssp = Cutfit_algo.Sssp
module Cc = Cutfit_algo.Connected_components
module Determinism = Cutfit_check.Determinism
module Fault_check = Cutfit_check.Fault_check

let path_edges ~n = List.init (n - 1) (fun i -> (i, i + 1))

let hash_pgraph ~num_partitions g =
  Pgraph.build g ~num_partitions
    (Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions g)

(* A path 0 -> 13 -> ... -> 52 into a 12-clique on 1..12, with a tail
   12 -> 53 -> ... -> 62. Label 0 walks the path one vertex a step,
   floods the clique at once, then walks the tail: the frontier goes
   from everything to one vertex, up to the clique and down again. *)
let broom =
  let path = (0, 13) :: List.init 39 (fun i -> (13 + i, 14 + i)) @ [ (52, 1) ] in
  let clique =
    List.concat_map (fun i -> List.init (12 - i) (fun j -> (i, i + j + 1))) (List.init 12 succ)
  in
  let tail = (12, 53) :: List.init 9 (fun i -> (53 + i, 54 + i)) in
  Test_util.graph_of_edges ~n:63 (path @ clique @ tail)

(* A path whose every edge is doubled, with self-loops on every third
   vertex and a few reciprocal edges. *)
let multi_path =
  let n = 30 in
  let doubled = List.concat_map (fun e -> [ e; e ]) (path_edges ~n) in
  let loops = List.init 10 (fun i -> (3 * i, 3 * i)) in
  Test_util.graph_of_edges ~n (doubled @ loops @ [ (7, 6); (20, 19); (21, 20) ])

type frontier_case = {
  fc_name : string;
  fc_run : Cutfit_obs.Telemetry.t -> Trace.t * string;
      (** the run's trace and values digest; fails on a reference mismatch *)
}

let sssp_case ?what_if fc_name ~num_partitions ~pgraph ~landmarks g =
  let fc_run telemetry =
    let cluster = Test_util.tiny_cluster ~num_partitions () in
    let r = Sssp.run ?what_if ~telemetry ~cluster ~landmarks (pgraph ~num_partitions g) in
    Alcotest.(check (array (array int)))
      (fc_name ^ ": distances = reference")
      (Sssp.reference g ~landmarks) r.Sssp.distances;
    (r.Sssp.trace, Fault_check.int_attrs_digest (Array.concat (Array.to_list r.Sssp.distances)))
  in
  { fc_name; fc_run }

let cc_case fc_name ~num_partitions g =
  let fc_run telemetry =
    let cluster = Test_util.tiny_cluster ~num_partitions () in
    let r = Cc.run ~iterations:200 ~telemetry ~cluster (hash_pgraph ~num_partitions g) in
    checkb (fc_name ^ ": completed") true (Trace.completed r.Cc.trace);
    Alcotest.(check (array int)) (fc_name ^ ": labels = reference") (Cc.reference g) r.Cc.labels;
    (r.Cc.trace, Fault_check.int_attrs_digest r.Cc.labels)
  in
  { fc_name; fc_run }

(* Hand placement of the 200-edge path: partitions of 63, 65 and 72
   edges, so partition ends and every 32-, 62-, 63- and 64-bit word
   boundary fall on consecutive positions the walking frontier
   visits. *)
let boundary_pgraph ~num_partitions g =
  Pgraph.build g ~num_partitions
    (Array.init (Graph.num_edges g) (fun e -> if e < 63 then 0 else if e < 128 then 1 else 2))

let frontier_cases =
  let path40 = Test_util.graph_of_edges ~n:40 (path_edges ~n:40) in
  [
    sssp_case "directed path, one active vertex a step" ~num_partitions:4 ~pgraph:hash_pgraph
      ~landmarks:[| 39 |] path40;
    sssp_case "directed path under scale events and faults" ~num_partitions:4
      ~pgraph:hash_pgraph ~landmarks:[| 39 |]
      ~what_if:
        {
          checkpoint_every = Some 3;
          elastic = Some (Cutfit_bsp.Elastic.config ~seed:5 "leave@4-1,join@9+2,preempt@12:r1");
          faults = Some (Cutfit_bsp.Faults.config ~seed:3 "crash@6,straggler@2-3:x3,loss@8:r1");
          speculation = None;
          hetero = None;
        }
      path40;
    sssp_case "more partitions than edges" ~num_partitions:16 ~pgraph:hash_pgraph
      ~landmarks:[| 12 |]
      (Test_util.graph_of_edges ~n:13 (path_edges ~n:13));
    sssp_case "self-loops and parallel edges" ~num_partitions:4 ~pgraph:hash_pgraph
      ~landmarks:[| 29; 15 |] multi_path;
    cc_case "self-loops and parallel edges, CC" ~num_partitions:4 multi_path;
    sssp_case "partition ends and bitmap word boundaries" ~num_partitions:3
      ~pgraph:boundary_pgraph ~landmarks:[| 200 |]
      (Test_util.graph_of_edges ~n:201 (path_edges ~n:201));
    cc_case "CC frontier crosses the dense/sparse switch both ways" ~num_partitions:4 broom;
  ]

let frontier_digests c =
  let sink, read = Cutfit_obs.Sink.ring ~capacity:(1 lsl 14) () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let trace, values = c.fc_run telemetry in
  Cutfit_obs.Telemetry.close telemetry;
  (Determinism.trace_digest trace, Determinism.events_digest (read ()), values)

(* (case, trace, events, values) *)
let frontier_table =
  [
    ( "directed path, one active vertex a step",
      "da4e0c7253d8c4dd53000fd9bb578b1b",
      "e93b73b9a0740d845d36803d2add354d",
      "d7b262f656dbea5d9e46c4217b4c77cc" );
    ( "directed path under scale events and faults",
      "bf6c15174e66a8505157fbec82010f20",
      "9ce77c0ab9f694fb870d901941701dd8",
      "d7b262f656dbea5d9e46c4217b4c77cc" );
    ( "more partitions than edges",
      "5cfd74de2079a98f7bb54ccd910b7ba6",
      "5c134cc2e86e6c698de7161ee6cf9767",
      "1796fb4daedbf49ed3033701e316edcb" );
    ( "self-loops and parallel edges",
      "8867b4b2dc4237334e389bb3342545ef",
      "dc40c8955eb49715a7e33357940e7eb4",
      "acb60b49d8fa978a486c0ef6eb5c66c0" );
    ( "self-loops and parallel edges, CC",
      "327c262a22adde859615c93230d2aae7",
      "419fb41af881a7ba92dcff3614be9504",
      "af18d03371ab67930e9dec55515d4208" );
    ( "partition ends and bitmap word boundaries",
      "d47c4a9fc950a493327cdf3bafd5d3e8",
      "d194a7bc3223989121ad5c34bbc4dc80",
      "a38e82fc3a7f53695a96fadbaf3076b7" );
    ( "CC frontier crosses the dense/sparse switch both ways",
      "709d628e2006dcc21837490cd563ad73",
      "bdabfe862220e16b0f7ab5e31c8f07d2",
      "6a21b93c85b7eaea2089e2466148ebca" );
  ]

let test_frontier_case c () =
  match List.find_opt (fun (name, _, _, _) -> name = c.fc_name) frontier_table with
  | None -> Alcotest.fail (c.fc_name ^ ": no committed digests")
  | Some (_, trace, events, values) ->
      let t, e, v = frontier_digests c in
      Alcotest.(check string) "trace digest" trace t;
      Alcotest.(check string) "events digest" events e;
      Alcotest.(check string) "values digest" values v

let suite =
  suite
  @ List.map
      (fun c -> Alcotest.test_case ("frontier: " ^ c.fc_name) `Quick (test_frontier_case c))
      frontier_cases

let suite =
  suite
  @ [
      Alcotest.test_case "boxed engine allocates per step, not per message" `Quick
        test_pregel_allocates_per_step;
    ]

(* --- repeated supersteps ---

   A PageRank superstep whose active edges and placement repeat the
   last charged one is priced from that step's counts, and the
   [bsp.reused_steps] counter says how many were. Step 1's frontier is
   every vertex (superstep 0 ran them all); every later frontier is the
   vertices with an in-edge. That is every vertex on roadnet_pa and
   youtube; pocek has vertices with no in-edge, but each of their
   out-edges stays active through its target. So steps 2-10 repeat
   step 1 on all three. CC and SSSP emit according to their values and
   reuse nothing. *)
let reused_steps dataset algorithm run =
  let g = Cutfit.Datasets.generate (Cutfit.Datasets.find dataset) in
  let telemetry = Cutfit_obs.Telemetry.create () in
  let p =
    Cutfit.Pipeline.prepare ~cluster:Cluster.config_i ~partitioner:(Partitioner.Hash Strategy.Rvc)
      ~telemetry ~algorithm g
  in
  let trace = run p in
  let reg = Cutfit_obs.Telemetry.metrics telemetry in
  (int_of_float (List.assoc "bsp.reused_steps" (Cutfit_obs.Metric.snapshot reg)), trace)

let test_reused_steps_counted () =
  let pagerank dataset want =
    let reused, trace =
      reused_steps dataset Cutfit.Advisor.Pagerank (fun p -> snd (Cutfit.Pipeline.pagerank p))
    in
    checki (dataset ^ ": PR compute steps") 10 (List.length trace.Trace.supersteps - 2);
    checki (dataset ^ ": PR reused steps") want reused
  in
  pagerank "roadnet_pa" 9;
  pagerank "youtube" 9;
  pagerank "pocek" 9;
  List.iter
    (fun dataset ->
      let cc, _ =
        reused_steps dataset Cutfit.Advisor.Connected_components (fun p ->
            snd (Cutfit.Pipeline.connected_components p))
      in
      checki (dataset ^ ": CC reused steps") 0 cc;
      let sssp, _ =
        reused_steps dataset Cutfit.Advisor.Shortest_paths (fun p ->
            let landmarks = Cutfit.Pipeline.default_landmarks p.Cutfit.Pipeline.graph in
            snd (Cutfit.Pipeline.shortest_paths ~landmarks p))
      in
      checki (dataset ^ ": SSSP reused steps") 0 sssp)
    [ "roadnet_pa"; "youtube" ]

(* A program that declares [static_emits] but emits by its values: on a
   directed cycle every vertex gets a message every step, so steps 2 on
   repeat step 1's frontier, and once a vertex's value reaches 2 it
   sends a second message. The repeated step that first does so must
   not be priced from counts it does not match. *)
let test_static_emits_guard () =
  let n = 12 in
  let g = Test_util.graph_of_edges ~n (List.init n (fun v -> (v, (v + 1) mod n))) in
  let cluster = Test_util.tiny_cluster ~num_partitions:4 () in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:4 g in
  let pg = Pgraph.build g ~num_partitions:4 a in
  let counting =
    {
      Test_util.init = (fun _ -> 0);
      initial_msg = 0;
      vprog = (fun _ steps _ -> steps + 1);
      send =
        (fun ~src:_ ~dst:_ ~src_attr ~dst_attr:_ ~emit ->
          emit Pregel.To_dst 1;
          if src_attr >= 2 then emit Pregel.To_dst 1);
      merge = ( + );
      state_bytes = 8;
      msg_bytes = 8;
    }
  in
  let honest = Test_util.run_boxed ~max_supersteps:6 ~cluster pg counting in
  checkb "undeclared: completes its steps" true
    (honest.Test_util.trace.Trace.outcome = Trace.Max_supersteps);
  match Test_util.run_boxed ~static_emits:true ~max_supersteps:6 ~cluster pg counting with
  | _ -> Alcotest.fail "a value-dependent program declared static_emits was priced"
  | exception Invalid_argument msg ->
      checkb "names the declaration" true (Test_util.contains "static_emits" msg)

let suite =
  suite
  @ [
      Alcotest.test_case "repeated supersteps: reused counts counted" `Quick
        test_reused_steps_counted;
      Alcotest.test_case "repeated supersteps: static_emits guard" `Quick test_static_emits_guard;
    ]
