module Graph = Cutfit_graph.Graph
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace
module Obs = Cutfit_obs

type prepared = {
  graph : Graph.t;
  pg : Pgraph.t;
  cluster : Cluster.t;
  partitioner : Partitioner.t;
  scale : float;
  telemetry : Obs.Telemetry.t option;
  what_if : Cutfit_bsp.Pricer.what_if;
}

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
  let p = { graph = g; pg; cluster; partitioner; scale; telemetry; what_if } in
  if check then
    Cutfit_check.Violation.raise_if_any
      (Cutfit_check.Pgraph_check.validate pg
      @ Cutfit_check.Metrics_check.validate g ~num_partitions assignment (Pgraph.metrics pg));
  p

let of_pgraph ?(cluster = Cluster.config_i) ?(scale = 1.0) ?(what_if = Cutfit_bsp.Pricer.static)
    ?telemetry ~partitioner pg =
  if cluster.Cluster.num_partitions <> Pgraph.num_partitions pg then
    invalid_arg "Pipeline.of_pgraph: cluster and partitioned graph disagree on partition count";
  { graph = Pgraph.graph pg; pg; cluster; partitioner; scale; telemetry; what_if }

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
    Cutfit_algo.Pagerank.run ?iterations ~scale:p.scale ~what_if:p.what_if ?telemetry:p.telemetry
      ~cluster:p.cluster p.pg
  in
  (r.Cutfit_algo.Pagerank.ranks, r.Cutfit_algo.Pagerank.trace)

let connected_components ?iterations p =
  start_run p "connected_components";
  let r =
    Cutfit_algo.Connected_components.run ?iterations ~scale:p.scale ~what_if:p.what_if
      ?telemetry:p.telemetry ~cluster:p.cluster p.pg
  in
  (r.Cutfit_algo.Connected_components.labels, r.Cutfit_algo.Connected_components.trace)

(* Triangle counting builds its four stages outside the Pregel/GAS
   engines, so the fault schedule does not apply to it: a TR run in a
   faulty workload simply executes fault-free. *)
let triangles p =
  start_run p "triangle_count";
  let r =
    Cutfit_algo.Triangle_count.run ~scale:p.scale ?telemetry:p.telemetry ~cluster:p.cluster p.pg
  in
  ( r.Cutfit_algo.Triangle_count.per_vertex,
    r.Cutfit_algo.Triangle_count.total,
    r.Cutfit_algo.Triangle_count.trace )

let shortest_paths ~landmarks p =
  start_run p "shortest_paths";
  let r =
    Cutfit_algo.Sssp.run ~scale:p.scale ~what_if:p.what_if ?telemetry:p.telemetry
      ~cluster:p.cluster ~landmarks p.pg
  in
  (r.Cutfit_algo.Sssp.distances, r.Cutfit_algo.Sssp.trace)

let compare_partitioners ?(check = false) ?(partitioners = Partitioner.paper_six)
    ?(cluster = Cluster.config_i) ?(scale = 1.0) ?(seed = 11L) ?what_if ?telemetry ~algorithm g =
  let times =
    List.map
      (fun partitioner ->
        let p =
          prepare ~check ~cluster ~partitioner ~scale ?what_if ?telemetry ~algorithm g
        in
        let trace =
          match algorithm with
          | Advisor.Pagerank -> snd (pagerank p)
          | Advisor.Connected_components -> snd (connected_components p)
          | Advisor.Triangle_count ->
              let _, _, t = triangles p in
              t
          | Advisor.Shortest_paths ->
              let landmarks = Cutfit_algo.Sssp.pick_landmarks ~seed ~count:3 p.graph in
              snd (shortest_paths ~landmarks p)
        in
        let time = if Trace.completed trace then trace.Trace.total_s else Float.nan in
        (Partitioner.name partitioner, time))
      partitioners
  in
  List.sort
    (fun (_, a) (_, b) ->
      match (Float.is_nan a, Float.is_nan b) with
      | true, true -> 0
      | true, false -> 1
      | false, true -> -1
      | false, false -> compare a b)
    times
