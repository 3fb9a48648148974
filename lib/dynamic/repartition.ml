module Graph = Cutfit_graph.Graph
module Graph_io = Cutfit_graph.Graph_io
module Streaming = Cutfit_partition.Streaming
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Event = Cutfit_obs.Event

type choice = Refresh | Rebuild

let choice_name = function Refresh -> "refresh" | Rebuild -> "rebuild"
let cost = Cost_model.default

(* Refresh: each inserted edge pays its streaming placement and shuffle,
   each repaired vertex a local table update, and each moved replica a
   mirror re-broadcast — plus one barrier to commit the refreshed cut.
   The per-item work scales with the paper-size factor like every other
   simulated cost, but the commit barrier is a single synchronization,
   not a per-unit-of-scale one: a few dozen repaired edges never pay a
   full distributed build's worth of barriers. *)
let refresh_price ~cluster ~scale (r : Incremental.refreshed) =
  let place_s = float_of_int r.Incremental.placed_edges *. cost.Cost_model.build_edge_s in
  let repair_s =
    float_of_int (r.Incremental.repaired_vertices + r.Incremental.moved_replicas)
    *. cost.Cost_model.build_vertex_s
  in
  let shuffle_bytes =
    float_of_int r.Incremental.placed_edges *. float_of_int cost.Cost_model.shuffle_edge_bytes
  in
  let broadcast_bytes =
    float_of_int r.Incremental.moved_replicas *. float_of_int cost.Cost_model.vertex_object_bytes
  in
  let network_s = (shuffle_bytes +. broadcast_bytes) /. Cluster.network_bytes_per_s cluster in
  (scale *. (place_s +. repair_s +. network_s)) +. cost.Cost_model.superstep_barrier_s

(* Rebuild: the advisor's full partition-build prediction — per-executor
   build work and shuffle from the cut's per-partition shape, plus the
   storage load of the whole (post-delta) graph. [m] describes the cut
   whose shape the rebuild is expected to reproduce; the pre-delta cut
   is the natural estimate. *)
let rebuild_price ~cluster ~scale g (m : Metrics.t) =
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

type priced = { refreshed : Incremental.refreshed; refresh_s : float; rebuild_s : float }

let price ~cluster ~scale ~old_metrics (applied : Mutation.applied) refreshed =
  {
    refreshed;
    refresh_s = refresh_price ~cluster ~scale refreshed;
    rebuild_s = rebuild_price ~cluster ~scale applied.Mutation.graph old_metrics;
  }

type decision = {
  batch : int;
  inserts : int;
  deletes : int;
  edges_before : int;
  edges_after : int;
  refresh_s : float;
  rebuild_s : float;
  choice : choice;
  placed_edges : int;
  repaired_vertices : int;
  moved_replicas : int;
}

(* Sums fold from 0.0 in list order, so a single cut's sum is its own
   price and no list is summed in two orders. *)
let decide (applied : Mutation.applied) (cuts : priced list) =
  let delta = applied.Mutation.delta in
  let sumf f = List.fold_left (fun acc (p : priced) -> acc +. f p) 0.0 cuts in
  let sumi f = List.fold_left (fun acc (p : priced) -> acc + f p.refreshed) 0 cuts in
  let refresh_s = sumf (fun p -> p.refresh_s) and rebuild_s = sumf (fun p -> p.rebuild_s) in
  {
    batch = delta.Mutation.batch;
    inserts = Array.length delta.Mutation.inserts;
    deletes = Array.length delta.Mutation.deletes;
    edges_before = Graph.num_edges applied.Mutation.before;
    edges_after = Graph.num_edges applied.Mutation.graph;
    refresh_s;
    rebuild_s;
    choice = (if refresh_s <= rebuild_s then Refresh else Rebuild);
    placed_edges = sumi (fun r -> r.Incremental.placed_edges);
    repaired_vertices = sumi (fun r -> r.Incremental.repaired_vertices);
    moved_replicas = sumi (fun r -> r.Incremental.moved_replicas);
  }

let events ~graph ~at_s (d : decision) =
  [
    Event.Mutation_batch
      {
        batch = d.batch;
        graph;
        inserts = d.inserts;
        deletes = d.deletes;
        edges_before = d.edges_before;
        edges_after = d.edges_after;
        at_s;
      };
    Event.Repartition
      {
        batch = d.batch;
        graph;
        choice = choice_name d.choice;
        refresh_s = d.refresh_s;
        rebuild_s = d.rebuild_s;
        placed_edges = d.placed_edges;
        repaired_vertices = d.repaired_vertices;
        moved_replicas = d.moved_replicas;
        at_s;
      };
  ]

type step = {
  decision : decision;
  graph : Graph.t;
  assignment : int array;
  metrics : Metrics.t;
}

let run ?(cluster = Cluster.config_i) ?batches ~heuristic ~num_partitions cfg g0 =
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
      let applied = Mutation.apply !g delta in
      let refreshed = Incremental.refresh heuristic ~num_partitions ~assignment:!a applied in
      let d =
        decide applied [ price ~cluster ~scale:1.0 ~old_metrics:!metrics applied refreshed ]
      in
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
