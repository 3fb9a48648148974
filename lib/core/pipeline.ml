module Graph = Cutfit_graph.Graph
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Cost_model = Cutfit_bsp.Cost_model
module Trace = Cutfit_bsp.Trace
module Kernel_check = Cutfit_check.Kernel_check
module Obs = Cutfit_obs

type prepared = {
  graph : Graph.t;
  pg : Pgraph.t;
  cluster : Cluster.t;
  partitioner : Partitioner.t;
  scale : float;
  cost : Cost_model.t;
  telemetry : Obs.Telemetry.t option;
  what_if : Cutfit_bsp.Pricer.what_if;
}

let of_pgraph ?(cluster = Cluster.config_i) ?(scale = 1.0) ?(cost = Cost_model.default)
    ?(what_if = Cutfit_bsp.Pricer.static) ?telemetry ~partitioner pg =
  if cluster.Cluster.num_partitions <> Pgraph.num_partitions pg then
    invalid_arg "Pipeline.of_pgraph: cluster and partitioned graph disagree on partition count";
  { graph = Pgraph.graph pg; pg; cluster; partitioner; scale; cost; telemetry; what_if }

let prepare ?(check = false) ?(cluster = Cluster.config_i) ?partitioner ?(scale = 1.0)
    ?(what_if = Cutfit_bsp.Pricer.static) ?telemetry ~algorithm g =
  let num_partitions = cluster.Cluster.num_partitions in
  let partitioner =
    match partitioner with
    | Some p -> p
    | None -> Partitioner.Hash (Advisor.advise algorithm ~scale ~num_partitions g)
  in
  let assignment = Partitioner.assign partitioner ~num_partitions g in
  if check then
    Cutfit_check.Violation.raise_if_any
      (Cutfit_check.Pgraph_check.assignment g ~num_partitions assignment);
  let pg = Pgraph.build g ~num_partitions assignment in
  let p = of_pgraph ~cluster ~scale ~what_if ?telemetry ~partitioner pg in
  if check then
    Cutfit_check.Violation.raise_if_any
      (Cutfit_check.Pgraph_check.validate pg
      @ Cutfit_check.Metrics_check.validate g ~num_partitions assignment (Pgraph.metrics pg));
  p

let metrics p = Pgraph.metrics p.pg

(* Each runner brackets the engine's event stream with a [Run_start]
   naming the algorithm and the partitioner, so multi-run trace files
   (e.g. from [compare_partitioners]) are self-describing. *)
let start_run p label =
  match p.telemetry with
  | None -> ()
  | Some t ->
      Obs.Telemetry.emit t
        (Obs.Event.Run_start
           { label = Printf.sprintf "%s/%s" label (Partitioner.name p.partitioner) })

let pagerank ?iterations p =
  start_run p "pagerank";
  let r =
    Cutfit_algo.Pagerank.run ?iterations ~scale:p.scale ~cost:p.cost ~what_if:p.what_if
      ?telemetry:p.telemetry ~cluster:p.cluster p.pg
  in
  (r.Cutfit_algo.Pagerank.ranks, r.Cutfit_algo.Pagerank.trace)

let price_pagerank ?iterations p =
  start_run p "pagerank";
  Cutfit_algo.Pagerank.price ?iterations ~scale:p.scale ~cost:p.cost ~what_if:p.what_if
    ?telemetry:p.telemetry ~cluster:p.cluster p.pg

let connected_components ?iterations p =
  start_run p "connected_components";
  let r =
    Cutfit_algo.Connected_components.run ?iterations ~scale:p.scale ~cost:p.cost
      ~what_if:p.what_if ?telemetry:p.telemetry ~cluster:p.cluster p.pg
  in
  (r.Cutfit_algo.Connected_components.labels, r.Cutfit_algo.Connected_components.trace)

(* Triangle counting builds its four stages outside the Pregel/GAS
   engines, so the fault schedule does not apply to it: a TR run in a
   faulty workload simply executes fault-free. *)
let triangles ?undirected p =
  start_run p "triangle_count";
  let r =
    Cutfit_algo.Triangle_count.run ~scale:p.scale ~cost:p.cost ?undirected ?telemetry:p.telemetry
      ~cluster:p.cluster p.pg
  in
  (r.Cutfit_algo.Triangle_count.per_vertex, r.Cutfit_algo.Triangle_count.trace)

let shortest_paths ~landmarks p =
  start_run p "shortest_paths";
  let r =
    Cutfit_algo.Sssp.run ~scale:p.scale ~cost:p.cost ~what_if:p.what_if ?telemetry:p.telemetry
      ~cluster:p.cluster ~landmarks p.pg
  in
  (r.Cutfit_algo.Sssp.distances, r.Cutfit_algo.Sssp.trace)

(* --- the algorithm table ---------------------------------------- *)

type 'v algo = {
  run : prepared -> 'v * Trace.t;
  price : prepared -> Trace.t;
  kernel : 'v Kernel_check.t;
  payload_bytes : int option;
  summary : 'v -> string;
}

type any_algo = Algo : 'v algo -> any_algo

let default_landmarks ?(seed = 11L) g = Cutfit_algo.Sssp.pick_landmarks ~seed ~count:3 g

(* Payload bytes of one remote Pregel message: an 8-byte value for PR
   and CC, and for SSSP a 96-byte map header plus 64 per landmark. Only
   PageRank declares static emits, so the other entries price by running. *)
let algo ?iterations ?undirected ~landmarks =
  let priced run p = snd (run p) in
  function
  | Advisor.Pagerank ->
      let summary ranks =
        let top = ref 0 in
        Array.iteri (fun v r -> if r > ranks.(!top) then top := v) ranks;
        Printf.sprintf "top vertex: %d (rank %.3f)" !top ranks.(!top)
      in
      Algo
        {
          run = pagerank ?iterations;
          price = price_pagerank ?iterations;
          kernel = Kernel_check.pagerank;
          payload_bytes = Some 8;
          summary;
        }
  | Advisor.Connected_components ->
      let summary labels =
        Printf.sprintf "components (labels after 10 iterations): %d"
          (List.length (List.sort_uniq compare (Array.to_list labels)))
      in
      Algo
        {
          run = connected_components ?iterations;
          price = priced (connected_components ?iterations);
          kernel = Kernel_check.connected_components;
          payload_bytes = Some 8;
          summary;
        }
  | Advisor.Triangle_count ->
      let summary per_vertex =
        "triangles: " ^ Cutfit_stats.Summary.commas (Array.fold_left ( + ) 0 per_vertex / 3)
      in
      Algo
        {
          run = triangles ?undirected;
          price = priced (triangles ?undirected);
          kernel = Kernel_check.triangle_count;
          payload_bytes = None;
          summary;
        }
  | Advisor.Shortest_paths ->
      let landmarks = Lazy.force landmarks in
      let summary distances =
        Printf.sprintf "vertices reaching landmark 0: %d"
          (Array.fold_left (fun n row -> if row.(0) < max_int then n + 1 else n) 0 distances)
      in
      Algo
        {
          run = shortest_paths ~landmarks;
          price = priced (shortest_paths ~landmarks);
          kernel = Kernel_check.shortest_paths ~landmarks;
          payload_bytes = Some (96 + (64 * Array.length landmarks));
          summary;
        }

(* The oracle must run to completion to prove anything: the simulation
   deliberately reproduces the paper's out-of-memory aborts (SSSP on
   road networks under cluster (i)), and an aborted run carries partial
   vertex values that no correct kernel should match. Vertex values do
   not depend on the cluster or the what-if, so the oracle runs
   statically on a memory-unconstrained copy of the cluster. *)
let oracle a p =
  let cluster =
    { p.cluster with executor_memory_bytes = Float.infinity; driver_memory_bytes = Float.infinity }
  in
  let values, _ = a.run { p with cluster; telemetry = None; what_if = Cutfit_bsp.Pricer.static } in
  a.kernel.Kernel_check.digest values

let compare_partitioners ?(check = false) ?(cluster = Cluster.config_i) ?seed ?what_if ?telemetry
    ~algorithm g =
  let (Algo a) = algo ~landmarks:(lazy (default_landmarks ?seed g)) algorithm in
  let times =
    List.map
      (fun partitioner ->
        let p = prepare ~check ~cluster ~partitioner ?what_if ?telemetry ~algorithm g in
        let trace = a.price p in
        let time = if Trace.completed trace then trace.Trace.total_s else Float.nan in
        (Partitioner.name partitioner, time))
      Partitioner.paper_six
  in
  List.sort
    (fun (_, a) (_, b) ->
      match (Float.is_nan a, Float.is_nan b) with
      | true, true -> 0
      | true, false -> 1
      | false, true -> -1
      | false, false -> compare a b)
    times
