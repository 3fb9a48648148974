(** Immutable directed graph in compressed sparse row form.

    The shared substrate for partitioners, the BSP engine and the
    analytics algorithms. Vertices are dense ids in [\[0, n)]; edges are
    stored both as flat [(src, dst)] arrays (what the vertex-cut
    partitioners consume) and as forward/reverse CSR adjacency (what the
    graph algorithms consume). Adjacency lists are sorted, enabling
    O(log d) membership tests. *)

type t

val create : n:int -> src:int array -> dst:int array -> t
(** [create ~n ~src ~dst] freezes the given edge arrays into a graph
    with [n] vertices. The arrays must have equal length and every
    endpoint must lie in [\[0, n)].
    @raise Invalid_argument otherwise. *)

val splice : t -> deletes:int array -> src:int array -> dst:int array -> t
(** [splice g ~deletes ~src ~dst] freezes the edge arrays of [g] after
    a delta. [deletes] are edge ids of [g], strictly ascending; [src]
    and [dst] must hold [g]'s other edges in build order, then the
    inserted edges. That prefix is not checked. The result equals
    [create ~n:(num_vertices g) ~src ~dst] array for array, but the
    adjacency is built from [g]'s: a bucket no delta edge touches is
    copied, a touched one merges its sorted survivors with its sorted
    inserts. O(n + m) word copies plus O(d log d) for [d] delta edges,
    with no bucket sort.
    @raise Invalid_argument if [deletes] is not ascending or out of
    range, the arrays differ in length or are shorter than the kept
    edges, or an inserted endpoint lies outside [\[0, n)]. *)

val of_edge_list : n:int -> Edge_list.t -> t
(** Freeze a builder buffer. *)

val num_vertices : t -> int
val num_edges : t -> int

val edge_src : t -> int -> int
(** Source of the [i]-th edge (build order). *)

val edge_dst : t -> int -> int
(** Destination of the [i]-th edge. *)

val src_array : t -> int array
(** The underlying source array; do not mutate. *)

val dst_array : t -> int array
(** The underlying destination array; do not mutate. *)

val out_csr : t -> int array * int array
(** [(off, adj)]: the underlying forward adjacency, [v]'s out-neighbours
    being [adj.(off.(v))] .. [adj.(off.(v + 1) - 1)], ascending; do not
    mutate. *)

val in_csr : t -> int array * int array
(** The same for the reverse adjacency (in-neighbours); do not mutate. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val degree_sum : t -> lo:int -> hi:int -> int
(** [degree_sum g ~lo ~hi] is the sum of [out_degree + in_degree] over
    the vertices in [\[lo, hi)], in O(1) from the CSR offsets; requires
    [0 <= lo <= hi <= num_vertices g]. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out g v f] applies [f] to every out-neighbour of [v]
    (ascending order, duplicates preserved). *)

val iter_in : t -> int -> (int -> unit) -> unit
(** Same for in-neighbours. *)

val out_neighbors : t -> int -> int array
(** Fresh sorted array of out-neighbours of [v]. *)

val has_edge : t -> src:int -> dst:int -> bool
(** O(log out_degree src) membership test. *)

val edge_multiplicity : t -> src:int -> dst:int -> int
(** Number of parallel [src -> dst] edges (0 when absent); O(log
    out_degree src + result). *)

val iter_edges : t -> (src:int -> dst:int -> unit) -> unit
(** Iterate over all edges in build order. *)

val symmetrize : t -> t
(** [symmetrize g] is the undirected view of [g]: every edge present in
    both directions, deduplicated, self-loops removed. Its edges are in
    ascending [(src, dst)] order, so {!iter_edges} visits each vertex's
    neighbours contiguously and in ascending order. O(n + m): a merge
    of each vertex's sorted out- and in-lists, with no sort. *)

val upper_neighbours : t -> int array * int array
(** [upper_neighbours g] is [(off, adj)], where [adj.(off.(u))] ..
    [adj.(off.(u + 1) - 1)] are [u]'s distinct undirected neighbours
    with an id above [u], ascending: the upper half of {!symmetrize}'s
    adjacency, in about half its words. O(n + m), by the same merge. *)
