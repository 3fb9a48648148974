module Graph = Cutfit_graph.Graph
module Metrics = Cutfit_partition.Metrics

type t = {
  graph : Graph.t;
  num_partitions : int;
  assignment : int array;
  presence : Metrics.presence;  (* edges by partition, replica offsets, local tables *)
  route_parts : int array;  (* partitions per vertex, ascending *)
  master : int array;
  mutable metrics : Metrics.t option;
}

let build g ~num_partitions assignment =
  let pr = Metrics.presence ~who:"Pgraph.build" g ~num_partitions assignment in
  let n = Graph.num_vertices g and route_off = pr.Metrics.route_off in
  (* Fill the routing table with a second ascending walk over the
     partitions. A vertex's last written entry serves as its stamp, so
     each (vertex, partition) pair is recorded once and per-vertex
     partition lists come out sorted. *)
  let route_parts = Array.make route_off.(n) 0 in
  let cursor = Array.sub route_off 0 n in
  let src = Graph.src_array g and dst = Graph.dst_array g in
  let part_off = pr.Metrics.part_off and part_edges = pr.Metrics.part_edges in
  for p = 0 to num_partitions - 1 do
    for i = part_off.(p) to part_off.(p + 1) - 1 do
      let e = part_edges.(i) in
      let s = src.(e) and d = dst.(e) in
      let c = cursor.(s) in
      if c = route_off.(s) || route_parts.(c - 1) <> p then begin
        route_parts.(c) <- p;
        cursor.(s) <- c + 1
      end;
      let c = cursor.(d) in
      if c = route_off.(d) || route_parts.(c - 1) <> p then begin
        route_parts.(c) <- p;
        cursor.(d) <- c + 1
      end
    done
  done;
  (* Spark's HashPartitioner uses Java hashCode, which is the identity
     for small Longs: the VertexRDD master of v is v mod P. This
     alignment is load-bearing — it is why destination-modulo (DC)
     partitioning makes PageRank messages aggregate directly at their
     master, the effect behind the paper's "DC best for PR" finding. *)
  let master = Array.init n (fun v -> v mod num_partitions) in
  { graph = g; num_partitions; assignment; presence = pr; route_parts; master; metrics = None }

let graph t = t.graph
let num_partitions t = t.num_partitions
let assignment t = Array.copy t.assignment

let part_off t = t.presence.Metrics.part_off
let part_edges t = t.presence.Metrics.part_edges
let route_off t = t.presence.Metrics.route_off
let route_parts t = t.route_parts

let num_edges_of_partition t p = (part_off t).(p + 1) - (part_off t).(p)
let edges_of_partition t p = Array.sub (part_edges t) (part_off t).(p) (num_edges_of_partition t p)
let replica_count t v = (route_off t).(v + 1) - (route_off t).(v)
let replicas t v = Array.sub t.route_parts (route_off t).(v) (replica_count t v)

let master t v = t.master.(v)
let masters t = t.master
let local_vertices t p = t.presence.Metrics.local_verts.(p)
let total_replicas t = Array.length t.route_parts

let metrics t =
  match t.metrics with
  | Some m -> m
  | None ->
      let m = Metrics.of_presence t.presence in
      t.metrics <- Some m;
      m
