module Graph = Cutfit_graph.Graph
module Graph_io = Cutfit_graph.Graph_io
module Streaming = Cutfit_partition.Streaming
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Event = Cutfit_obs.Event
module Telemetry = Cutfit_obs.Telemetry

type choice = Refresh | Rebuild

let choice_name = function Refresh -> "refresh" | Rebuild -> "rebuild"

(* Refresh: each inserted edge pays its streaming placement and shuffle,
   each repaired vertex a local table update, and each moved replica a
   mirror re-broadcast — plus one barrier to commit the refreshed cut.
   The per-item work scales with the paper-size factor like every other
   simulated cost, but the commit barrier is a single synchronization,
   not a per-unit-of-scale one: a few dozen repaired edges never pay a
   full distributed build's worth of barriers. *)
let refresh_price ?(cost = Cost_model.default) ?(cluster = Cluster.config_i) ?(scale = 1.0)
    ~placed_edges ~repaired_vertices ~moved_replicas () =
  let place_s = float_of_int placed_edges *. cost.Cost_model.build_edge_s in
  let repair_s =
    float_of_int (repaired_vertices + moved_replicas) *. cost.Cost_model.build_vertex_s
  in
  let shuffle_bytes =
    float_of_int placed_edges *. float_of_int cost.Cost_model.shuffle_edge_bytes
  in
  let broadcast_bytes =
    float_of_int moved_replicas *. float_of_int cost.Cost_model.vertex_object_bytes
  in
  let network_s = (shuffle_bytes +. broadcast_bytes) /. Cluster.network_bytes_per_s cluster in
  (scale *. (place_s +. repair_s +. network_s)) +. cost.Cost_model.superstep_barrier_s

(* Rebuild: the advisor's full partition-build prediction — per-executor
   build work and shuffle from the cut's per-partition shape, plus the
   storage load of the whole (post-delta) graph. [metrics] describes the
   cut whose shape the rebuild is expected to reproduce; the pre-delta
   cut is the natural estimate. *)
let rebuild_price ?(cost = Cost_model.default) ?(cluster = Cluster.config_i) ?(scale = 1.0) g
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
    float_of_int (Graph_io.size_bytes g)
    /. (float_of_int executors *. Cluster.storage_bytes_per_s cluster)
  in
  let overhead =
    cost.Cost_model.superstep_barrier_s
    +. (float_of_int m.Metrics.num_partitions *. cost.Cost_model.task_dispatch_s)
  in
  scale *. (load +. Float.max compute network +. overhead)

type decision = {
  batch : int;
  inserts : int;
  deletes : int;
  refresh_s : float;
  rebuild_s : float;
  choice : choice;
  placed_edges : int;
  repaired_vertices : int;
  moved_replicas : int;
  edges_after : int;
}

let decide ?cost ?cluster ?scale ~old_metrics (applied : Mutation.applied)
    (r : Incremental.refreshed) =
  let delta = applied.Mutation.delta and g' = applied.Mutation.graph in
  let refresh_s =
    refresh_price ?cost ?cluster ?scale ~placed_edges:r.Incremental.placed_edges
      ~repaired_vertices:r.Incremental.repaired_vertices
      ~moved_replicas:r.Incremental.moved_replicas ()
  in
  let rebuild_s = rebuild_price ?cost ?cluster ?scale g' old_metrics in
  {
    batch = delta.Mutation.batch;
    inserts = Array.length delta.Mutation.inserts;
    deletes = Array.length delta.Mutation.deletes;
    refresh_s;
    rebuild_s;
    choice = (if refresh_s <= rebuild_s then Refresh else Rebuild);
    placed_edges = r.Incremental.placed_edges;
    repaired_vertices = r.Incremental.repaired_vertices;
    moved_replicas = r.Incremental.moved_replicas;
    edges_after = Graph.num_edges g';
  }

(* The standalone driver has neither a graph name nor a clock: events
   carry graph ["-"] at time 0. *)
let emit_events ?telemetry ~edges_before (d : decision) =
  match telemetry with
  | None -> ()
  | Some tel ->
      Telemetry.emit tel
        (Event.Mutation_batch
           {
             batch = d.batch;
             graph = "-";
             inserts = d.inserts;
             deletes = d.deletes;
             edges_before;
             edges_after = d.edges_after;
             at_s = 0.0;
           });
      Telemetry.emit tel
        (Event.Repartition
           {
             batch = d.batch;
             graph = "-";
             choice = choice_name d.choice;
             refresh_s = d.refresh_s;
             rebuild_s = d.rebuild_s;
             placed_edges = d.placed_edges;
             repaired_vertices = d.repaired_vertices;
             moved_replicas = d.moved_replicas;
             at_s = 0.0;
           })

type step = {
  decision : decision;
  graph : Graph.t;
  assignment : int array;
  metrics : Metrics.t;
}

let run ?cost ?cluster ?scale ?telemetry ?batches ~heuristic ~num_partitions cfg g0 =
  if num_partitions <= 0 then invalid_arg "Repartition.run: num_partitions <= 0";
  let batches = match batches with Some b -> b | None -> Mutation.max_batch cfg in
  if batches < 1 then invalid_arg "Repartition.run: batches < 1";
  let steps = ref [] in
  let g = ref g0 in
  let a = ref (Streaming.assign heuristic ~num_partitions g0) in
  let metrics = ref (Metrics.compute g0 ~num_partitions !a) in
  for batch = 1 to batches do
    let delta = Mutation.plan cfg ~batch !g in
    if not (Mutation.is_empty delta) then begin
      let edges_before = Graph.num_edges !g in
      let applied = Mutation.apply !g delta in
      let refreshed = Incremental.refresh heuristic ~num_partitions ~assignment:!a applied in
      let d = decide ?cost ?cluster ?scale ~old_metrics:!metrics applied refreshed in
      emit_events ?telemetry ~edges_before d;
      g := applied.Mutation.graph;
      (a :=
         match d.choice with
         | Refresh -> refreshed.Incremental.assignment
         | Rebuild -> Streaming.assign heuristic ~num_partitions !g);
      metrics := Metrics.compute !g ~num_partitions !a;
      steps := { decision = d; graph = !g; assignment = !a; metrics = !metrics } :: !steps
    end
  done;
  List.rev !steps
