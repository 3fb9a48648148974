module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Metrics = Cutfit_partition.Metrics

type algorithm = Pagerank | Connected_components | Triangle_count | Shortest_paths

let algorithm_name = function
  | Pagerank -> "PR"
  | Connected_components -> "CC"
  | Triangle_count -> "TR"
  | Shortest_paths -> "SSSP"

let algorithm_of_string s =
  match String.uppercase_ascii s with
  | "PR" | "PAGERANK" -> Some Pagerank
  | "CC" -> Some Connected_components
  | "TR" | "TRIANGLES" -> Some Triangle_count
  | "SSSP" -> Some Shortest_paths
  | _ -> None

let predictive_metric = function
  | Pagerank | Connected_components | Shortest_paths -> "CommCost"
  | Triangle_count -> "Cut"

type size_class = Small | Large

let classify ~paper_scale_edges = if paper_scale_edges >= 5.0e7 then Large else Small

(* Section 4's observed winners, condensed to rules. *)
let heuristic algo ~size ~num_partitions =
  let fine = num_partitions > 128 in
  match (algo, size, fine) with
  | Pagerank, Large, _ -> Strategy.Two_d
  | Pagerank, Small, _ -> Strategy.Dc
  | Connected_components, Large, _ -> Strategy.Two_d
  | Connected_components, Small, false -> Strategy.One_d
  | Connected_components, Small, true -> Strategy.Two_d
  | Triangle_count, _, _ -> Strategy.Crvc
  | Shortest_paths, Large, _ -> Strategy.Two_d
  | Shortest_paths, Small, _ -> Strategy.One_d

type ranked = { strategy : Strategy.t; metrics : Metrics.t; score : float }

let rank algo measured =
  let metric = predictive_metric algo in
  let ranked =
    List.map
      (fun (strategy, metrics) -> { strategy; metrics; score = Metrics.metric_value metrics metric })
      measured
  in
  List.sort
    (fun a b ->
      let c = compare a.score b.score in
      if c <> 0 then c else compare a.metrics.Metrics.balance b.metrics.Metrics.balance)
    ranked

let measure algo ~num_partitions g = rank algo (Metrics.of_hash g ~num_partitions)

(* --- predicted simulated cost (coarse, for scheduling/amortization) ---

   These mirror the engine's cost model closely enough to rank
   strategies and order jobs, not to reproduce the trace: the build
   phase is re-derived exactly from the per-partition edge/vertex
   counts the metrics already carry, while execution is summarized as
   [supersteps] rounds whose traffic is proportional to the algorithm's
   predictive metric. *)

module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model

let predicted_build_s ?(cost = Cost_model.default) ?(cluster = Cluster.config_i) ?(scale = 1.0) g
    (m : Metrics.t) =
  let executors = cluster.Cluster.executors in
  let cores = cluster.Cluster.cores_per_executor in
  let per_exec_work = Array.make executors 0.0 in
  let per_exec_bytes = Array.make executors 0.0 in
  let remote_frac = float_of_int (executors - 1) /. float_of_int executors in
  Array.iteri
    (fun p e_p ->
      let e = p mod executors in
      let v_p = float_of_int m.Metrics.vertices_per_partition.(p) in
      let e_p = float_of_int e_p in
      per_exec_work.(e) <-
        per_exec_work.(e)
        +. (e_p *. cost.Cost_model.build_edge_s)
        +. (v_p *. cost.Cost_model.build_vertex_s);
      per_exec_bytes.(e) <-
        per_exec_bytes.(e)
        +. (e_p *. float_of_int cost.Cost_model.shuffle_edge_bytes *. remote_frac))
    m.Metrics.edges_per_partition;
  let compute =
    Array.fold_left (fun acc w -> Float.max acc (w /. float_of_int cores)) 0.0 per_exec_work
  in
  let network =
    Array.fold_left
      (fun acc b -> Float.max acc (b /. Cluster.network_bytes_per_s cluster))
      0.0 per_exec_bytes
  in
  let load =
    float_of_int (Cutfit_graph.Graph_io.size_bytes g)
    /. (float_of_int executors *. Cluster.storage_bytes_per_s cluster)
  in
  let overhead =
    cost.Cost_model.superstep_barrier_s
    +. (float_of_int m.Metrics.num_partitions *. cost.Cost_model.task_dispatch_s)
  in
  scale *. (load +. Float.max compute network +. overhead)

let predicted_exec_s ?(cost = Cost_model.default) ?(cluster = Cluster.config_i) ?(scale = 1.0)
    ?(supersteps = 10) algo g (m : Metrics.t) =
  let traffic = Metrics.metric_value m (predictive_metric algo) in
  let edges = float_of_int (Graph.num_edges g) in
  let vertices = float_of_int (Graph.num_vertices g) in
  let per_step_work =
    (edges *. (cost.Cost_model.edge_scan_s +. cost.Cost_model.msg_merge_s))
    +. (vertices *. cost.Cost_model.vprog_s)
    +. (2.0 *. traffic *. cost.Cost_model.msg_serialize_s)
  in
  let wire_bytes = traffic *. float_of_int (8 + cost.Cost_model.msg_wire_overhead_bytes) in
  let per_step_network =
    wire_bytes /. float_of_int cluster.Cluster.executors /. Cluster.network_bytes_per_s cluster
  in
  let overhead =
    cost.Cost_model.superstep_barrier_s
    +. (float_of_int m.Metrics.num_partitions *. cost.Cost_model.task_dispatch_s)
  in
  float_of_int supersteps
  *. ((scale
      *. Float.max
           (per_step_work /. float_of_int (Cluster.total_cores cluster))
           per_step_network)
     +. overhead)

let advise ?(measure_threshold_edges = 5_000_000) ?ranked algo ~scale ~num_partitions g =
  if Graph.num_edges g <= measure_threshold_edges then
    let ranked =
      match ranked with Some r -> r | None -> measure algo ~num_partitions g
    in
    match ranked with
    | best :: _ -> best.strategy
    | [] -> heuristic algo ~size:Small ~num_partitions
  else begin
    let paper_scale_edges = scale *. float_of_int (Graph.num_edges g) in
    heuristic algo ~size:(classify ~paper_scale_edges) ~num_partitions
  end
