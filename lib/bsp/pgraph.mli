(** Partitioned graph: GraphX's distributed representation.

    A graph plus an edge-to-partition assignment, frozen into the
    structures the engine needs:
    - per-partition edge lists (the EdgeRDD partitions);
    - a routing table mapping each vertex to the sorted set of
      partitions holding at least one of its edges (GraphX's
      [RoutingTablePartition], which drives replica broadcast);
    - a master partition per vertex: GraphX hash-partitions the
      VertexRDD independently of the edge cut, and Spark's
      HashPartitioner over Long ids reduces to [v mod num_partitions] —
      an identity whose alignment with the modulo partitioners (SC/DC)
      is part of the behaviour the paper measures. *)

type t

val build :
  Cutfit_graph.Graph.t -> num_partitions:int -> int array -> t
(** [build g ~num_partitions assignment] with [assignment] from
    {!Cutfit_partition.Partitioner.assign}.
    @raise Invalid_argument on malformed input. *)

val graph : t -> Cutfit_graph.Graph.t
val num_partitions : t -> int

val assignment : t -> int array
(** Copy of the edge-to-partition assignment the graph was built from;
    index = edge id. Used by the {!Cutfit_check} sanitizers to
    cross-validate the frozen structures against their source. *)

val edges_of_partition : t -> int -> int array
(** Edge indices (into the underlying graph) owned by a partition; do
    not mutate. *)

val num_edges_of_partition : t -> int -> int

val part_off : t -> int array
(** Partition [p]'s edges are [part_edges.(i)] for
    [part_off.(p) <= i < part_off.(p + 1)]; do not mutate. *)

val part_edges : t -> int array
(** Edge ids grouped by partition, ascending within each group: the
    order every engine scans a partition in; do not mutate. *)

val replicas : t -> int -> int array
(** Sorted partitions in which the vertex is present (fresh array). *)

val replica_count : t -> int -> int

val route_off : t -> int array
(** Vertex [v]'s partitions are [route_parts.(i)] for
    [route_off.(v) <= i < route_off.(v + 1)]; do not mutate. *)

val route_parts : t -> int array
(** Every vertex's partitions, ascending within each vertex; do not
    mutate. *)

val master : t -> int -> int
(** The vertex's master partition, [v mod num_partitions] (it may hold
    none of the vertex's edges, exactly as in GraphX). *)

val masters : t -> int array
(** [masters.(v)] is [master t v]; do not mutate. *)

val local_vertices : t -> int -> int
(** Size of a partition's local vertex table. *)

val total_replicas : t -> int
(** Sum of replica counts over all vertices = NonCut + CommCost. *)

val metrics : t -> Cutfit_partition.Metrics.t
(** The partitioning metrics of this assignment (computed once,
    memoized). *)
