(** Streaming vertex-cut partitioners (extension baselines).

    The paper's related-work section points at streaming partitioning
    (Fennel, Stanton–Kliot) as the state of the art beyond hash
    families. These three classic vertex-cut streaming algorithms are
    implemented as ablation baselines for the A1 experiment:

    - {b DBH} (degree-based hashing): hash each edge by its
      lower-degree endpoint, so hub vertices are the ones replicated.
    - {b Greedy} (PowerGraph): place each edge where its endpoints
      already live, tie-breaking toward the least loaded partition.
    - {b HDRF} (high-degree replicated first): greedy with a degree-
      aware score; the [lambda] parameter trades replication for
      balance.
    - {b Hybrid} (PowerLyra's hybrid-cut): destination-grouped placement
      for low-in-degree vertices, source-hashed spreading for hubs; the
      threshold is the in-degree at which a vertex counts as a hub.

    Each heuristic is a pure choice function over an abstract {!view} of
    the stream state, so the same placement rules drive both the offline
    {!assign} stream and the incremental repartitioner of
    [Cutfit_dynamic], which rebuilds the view from a cached cut.

    {b Invariant: a heuristic reads the live state only at the
    endpoints it places.} Placing [src -> dst] reads the replica lists
    and streamed degrees of [src] and [dst], and the partition loads;
    nothing else of the live state. So a caller that will place edges
    at a known set of vertices only may replay {!live_record} for the
    edges incident to that set, in stream order, and charge every other
    edge with {!live_add_load}: each placement comes out the same as
    after a full replay. *)

type t = Dbh | Greedy | Hdrf of float | Hybrid of int

val to_string : t -> string
val of_string : string -> t option

type live
(** Mutable stream state: per-vertex replica sets, per-partition edge
    loads and streamed degrees — what the heuristics accumulate while
    placing edges one at a time. *)

val live_create : n:int -> num_partitions:int -> live
(** Empty state for a graph with [n] vertices.
    @raise Invalid_argument if [num_partitions <= 0]. *)

val live_add_load : live -> int -> unit
(** [live_add_load st p] charges one edge to partition [p]'s load
    alone: no vertex gains a replica or a streamed degree. Every load
    change goes through here. *)

val live_record : live -> src:int -> dst:int -> int -> unit
(** [live_record st ~src ~dst p] accounts one edge placed on partition
    [p]: both endpoints gain a replica on [p] (if absent), [p]'s load
    and both streamed degrees increment. *)

type view = {
  v_replicas : int -> int list;  (** partitions already holding the vertex *)
  v_load : int -> int;  (** edges placed on the partition so far *)
  v_degree : int -> int;  (** streamed (partial) degree, for HDRF *)
  v_total_degree : int -> int;  (** full degree, for DBH's hash key *)
  v_in_degree : int -> int;  (** full in-degree, for Hybrid's hub test *)
}
(** Read-only window the choice functions consult. *)

val live_view : Cutfit_graph.Graph.t -> live -> view
(** View over [live] state, with full degrees read from the graph. *)

val choose : t -> view -> num_partitions:int -> src:int -> dst:int -> int
(** One streaming placement decision for the edge [src -> dst] given the
    current [view]. Pure: callers account the result with
    {!live_record} themselves (the hashing heuristics DBH / Hybrid need
    no accounting). *)

val assign : ?order:int64 -> t -> num_partitions:int -> Cutfit_graph.Graph.t -> int array
(** [assign t ~num_partitions g] maps each edge index of [g] to a
    partition, processing edges in stream (build) order — or, with
    [?order], in a seeded Fisher–Yates permutation of that order (the
    result stays indexed by original edge id). Deterministic either
    way: a fixed [order] seed reproduces the assignment bit-exactly.
    @raise Invalid_argument if [num_partitions <= 0]. *)
