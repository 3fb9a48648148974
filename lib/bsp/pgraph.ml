module Graph = Cutfit_graph.Graph
module Metrics = Cutfit_partition.Metrics

type t = {
  graph : Graph.t;
  num_partitions : int;
  assignment : int array;
  part_off : int array;  (* partition -> start in part_edges *)
  part_edges : int array;  (* edge indices grouped by partition *)
  route_off : int array;  (* vertex -> start in route_parts *)
  route_parts : int array;  (* partitions per vertex, ascending *)
  master : int array;
  local_verts : int array;  (* partition -> local vertex table size *)
  mutable metrics : Metrics.t option;
}

let build g ~num_partitions assignment =
  let n = Graph.num_vertices g and m = Graph.num_edges g in
  if num_partitions <= 0 then invalid_arg "Pgraph.build: num_partitions <= 0";
  if Array.length assignment <> m then invalid_arg "Pgraph.build: assignment length mismatch";
  (* Group edge indices by partition with a counting sort. *)
  let part_off = Array.make (num_partitions + 1) 0 in
  Array.iter
    (fun p ->
      if p < 0 || p >= num_partitions then invalid_arg "Pgraph.build: partition out of range";
      part_off.(p + 1) <- part_off.(p + 1) + 1)
    assignment;
  for p = 1 to num_partitions do
    part_off.(p) <- part_off.(p) + part_off.(p - 1)
  done;
  let part_edges = Array.make m 0 in
  let cursor = Array.copy part_off in
  Array.iteri
    (fun e p ->
      part_edges.(cursor.(p)) <- e;
      cursor.(p) <- cursor.(p) + 1)
    assignment;
  (* Routing table: iterate partitions in ascending order, stamping the
     last partition seen per vertex, so each (vertex, partition) pair is
     recorded once and per-vertex partition lists come out sorted. *)
  let stamp = Array.make n (-1) in
  let counts = Array.make n 0 in
  let local_verts = Array.make num_partitions 0 in
  let visit_pass record =
    Array.fill stamp 0 n (-1);
    for p = 0 to num_partitions - 1 do
      for i = part_off.(p) to part_off.(p + 1) - 1 do
        let e = part_edges.(i) in
        let touch v =
          if stamp.(v) <> p then begin
            stamp.(v) <- p;
            record v p
          end
        in
        touch (Graph.edge_src g e);
        touch (Graph.edge_dst g e)
      done
    done
  in
  visit_pass (fun v p ->
      counts.(v) <- counts.(v) + 1;
      local_verts.(p) <- local_verts.(p) + 1);
  let route_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    route_off.(v + 1) <- route_off.(v) + counts.(v)
  done;
  let route_parts = Array.make route_off.(n) 0 in
  let rcursor = Array.copy route_off in
  visit_pass (fun v p ->
      route_parts.(rcursor.(v)) <- p;
      rcursor.(v) <- rcursor.(v) + 1);
  (* Spark's HashPartitioner uses Java hashCode, which is the identity
     for small Longs: the VertexRDD master of v is v mod P. This
     alignment is load-bearing — it is why destination-modulo (DC)
     partitioning makes PageRank messages aggregate directly at their
     master, the effect behind the paper's "DC best for PR" finding. *)
  let master = Array.init n (fun v -> v mod num_partitions) in
  {
    graph = g;
    num_partitions;
    assignment;
    part_off;
    part_edges;
    route_off;
    route_parts;
    master;
    local_verts;
    metrics = None;
  }

let graph t = t.graph
let num_partitions t = t.num_partitions
let assignment t = Array.copy t.assignment

let edges_of_partition t p = Array.sub t.part_edges t.part_off.(p) (t.part_off.(p + 1) - t.part_off.(p))
let num_edges_of_partition t p = t.part_off.(p + 1) - t.part_off.(p)

let replicas t v = Array.sub t.route_parts t.route_off.(v) (t.route_off.(v + 1) - t.route_off.(v))
let replica_count t v = t.route_off.(v + 1) - t.route_off.(v)

let part_off t = t.part_off
let part_edges t = t.part_edges
let route_off t = t.route_off
let route_parts t = t.route_parts
let master t v = t.master.(v)
let masters t = t.master
let local_vertices t p = t.local_verts.(p)
let total_replicas t = Array.length t.route_parts

let metrics t =
  match t.metrics with
  | Some m -> m
  | None ->
      let m = Metrics.compute t.graph ~num_partitions:t.num_partitions t.assignment in
      t.metrics <- Some m;
      m
