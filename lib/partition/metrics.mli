(** Partitioning characterization metrics (paper §3.1, Tables 2–3).

    Given an edge-to-partition assignment, a vertex is {e present} in
    every partition that holds at least one of its edges — GraphX
    reconstructs a local vertex table per edge partition. From the
    presence relation the paper derives:

    - {b Balance}: edges in the biggest partition over the mean.
    - {b NonCut}: vertices present in exactly one partition.
    - {b Cut}: vertices present in more than one partition.
    - {b CommCost}: total presence count over cut vertices — the number
      of replica synchronisation messages per BSP superstep.
    - {b PartStDev}: standard deviation of edges per partition. *)

type t = {
  num_partitions : int;
  edges_per_partition : int array;
  vertices_per_partition : int array;
  balance : float;
  non_cut : int;
  cut : int;
  comm_cost : int;
  part_stdev : float;
  replication_factor : float;  (** mean replicas per (non-isolated) vertex *)
  vertices_to_same : int;
      (** vertex copies collocated with their (identity-hash) master
          partition — synchronized locally *)
  vertices_to_other : int;
      (** vertex copies living away from their master — each one is a
          shipped state update. The paper's section 3.1 identity holds:
          [comm_cost + non_cut = vertices_to_same + vertices_to_other]. *)
}

type presence = {
  part_off : int array;
      (** partition [p]'s edges are [part_edges.(i)] for
          [part_off.(p) <= i < part_off.(p + 1)] *)
  part_edges : int array;  (** edge ids grouped by partition, ascending within each *)
  route_off : int array;
      (** vertex [v] is present in [route_off.(v + 1) - route_off.(v)]
          partitions; [route_off.(n)] is the total replica count *)
  local_verts : int array;  (** partition -> size of its local vertex table *)
  at_master : int;
      (** vertices present in their master partition [v mod num_partitions] *)
}
(** The presence relation of an assignment, in the layout both the
    metrics and the partitioned graph ([Cutfit_bsp.Pgraph]) are built from. *)

val presence :
  who:string -> Cutfit_graph.Graph.t -> num_partitions:int -> int array -> presence
(** [presence g ~num_partitions assignment] validates the assignment,
    counting-sorts edge ids by partition and walks the partitions in
    ascending order once, meeting each (vertex, partition) pair exactly
    once. O(n + m + num_partitions) time and memory.
    @raise Invalid_argument on a malformed assignment, with a message
    that starts with the caller's name [who]. *)

val of_presence : presence -> t
(** The metrics record of a presence relation. *)

val compute : Cutfit_graph.Graph.t -> num_partitions:int -> int array -> t
(** [compute g ~num_partitions assignment] with [assignment] as produced
    by {!Partitioner.assign}: [of_presence] of {!presence}.
    @raise Invalid_argument on a malformed assignment. *)

val of_hash : Cutfit_graph.Graph.t -> num_partitions:int -> (Strategy.t * t) list
(** The metrics of every hash strategy, in {!Strategy.all} order, each
    equal to [compute g ~num_partitions (Partitioner.assign (Hash s) ~num_partitions g)]
    but read straight from [g]'s adjacency: no assignment array and no
    sort, only O(n + P) scratch per strategy. Each vertex is placed
    once through {!Strategy.tables}; RVC and CRVC share one sweep and
    the pair hash of every edge with [src <= dst].
    @raise Invalid_argument if [num_partitions <= 0]. *)

val replica_count : Cutfit_graph.Graph.t -> num_partitions:int -> int array -> int array
(** Per-vertex number of partitions the vertex is present in (0 for
    isolated vertices), counted independently of {!presence} with a
    (vertex, partition) presence bitset: the sanitizers' oracle. *)

val presence_words : int -> int
(** Words per vertex in a (vertex, partition) presence bitset over
    [num_partitions] partitions: 63 partitions per int. *)

val popcount : int -> int
(** Number of set bits of an int (all 63), in constant time. *)

val metric_value : t -> string -> float
(** Look up a metric by its paper name ("Balance", "NonCut", "Cut",
    "CommCost", "PartStDev"); used by the correlation harness.
    @raise Invalid_argument on an unknown name. *)

val metric_names : string list
(** The five paper metrics, in Tables 2–3 column order. *)

val pp : Format.formatter -> t -> unit
(** One row in Table 2/3 column order. *)
