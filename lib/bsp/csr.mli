(** Compact per-partition CSR edge representation: the real-execution
    counterpart of {!Pgraph}.

    {!Pgraph} is what the cost simulator iterates — edge indices into
    the graph's endpoint arrays, one boxed message per vertex. This module freezes the
    same partitioned graph into flat [Bigarray] buffers that the
    [run_csr] kernels in [Cutfit_algo] scan at memory speed, plus the
    preallocated per-partition message buffers the kernels accumulate
    into:

    - [part_off]/[edge_src]/[edge_dst]: every partition's edges as a
      contiguous range of endpoint arrays, in exactly the order
      {!Pgraph.part_edges} lists them;
    - one {e accumulator slot} per (partition, vertex) pair where the
      vertex has at least one edge in the partition — GraphX's local
      combiner made concrete. [slot_off] gives each partition's
      contiguous slot range (so parallel scatters never share a cache
      line across partitions), [slot_vertex] maps a slot back to its
      vertex, and [src_slot]/[dst_slot] precompute each edge's endpoint
      slots so the hot loop never searches;
    - [group_off]: inside its range, a partition's slots are grouped by
      reduce chunk (vertices [\[ch * chunk, (ch + 1) * chunk)]), in
      ascending chunk order, first-touch order within a group. Group
      (p, ch) is [\[group_off (p * num_chunks + ch), group_off (p *
      num_chunks + ch + 1))]. A chunk's reduce scans its groups for p =
      0, 1, …, P-1; a vertex has one slot per partition, so it folds its
      slots in ascending partition order — the boxed engines' fixed
      cross-partition merge order, bit-for-bit, at any domain count;
    - [facc]/[iacc]/[has]: the preallocated message buffers (one float,
      one int and one occupancy byte per slot). Kernels must leave
      [has] all-zero on return; runs on one [t] must not overlap.

    The graph is unweighted (SSSP counts hops), so no edge-weight array
    is materialized; adding one is a matter of another [float_buf] in
    partition edge order. With S = {!Pgraph.total_replicas}, the
    footprint is 4E + 3S + n + P * ceil(n / chunk) + O(P) words plus S
    occupancy bytes: O(E + S) while P stays below [chunk], and n + S
    words less than a per-vertex reduction list (offsets plus slot
    ids) would need. *)

type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  graph : Cutfit_graph.Graph.t;
  num_partitions : int;
  num_vertices : int;
  num_edges : int;
  num_slots : int;  (** = {!Pgraph.total_replicas} of the frozen graph *)
  part_off : int_buf;  (** [P+1]: partition [p]'s edges are [\[part_off p, part_off (p+1))] *)
  edge_src : int_buf;  (** [E], grouped by partition, partition edge order *)
  edge_dst : int_buf;  (** [E] *)
  src_slot : int_buf;  (** [E]: accumulator slot of (owning partition, src) *)
  dst_slot : int_buf;  (** [E]: accumulator slot of (owning partition, dst) *)
  slot_off : int_buf;  (** [P+1]: partition [p]'s slots are [\[slot_off p, slot_off (p+1))] *)
  slot_vertex : int_buf;
      (** [S]: vertex of each slot; within a partition, grouped by chunk
          ascending, first-touch order within a group *)
  num_chunks : int;  (** [ceil (n / chunk)]: reduce work items *)
  group_off : int_buf;
      (** [P * num_chunks + 1]: group (p, ch) starts at [group_off (p *
          num_chunks + ch)]; the last entry is [S] *)
  out_deg : int_buf;  (** [n]: out-degree in the underlying graph *)
  facc : float_buf;  (** [S]: preallocated float message buffer *)
  iacc : int_buf;  (** [S]: preallocated int message buffer *)
  has : Bytes.t;  (** [S]: slot occupancy; all-zero between runs *)
}

val chunk : int
(** Vertices per reduce work item (4096): big enough to amortize
    dispatch, small enough to load-balance across domains. Every
    chunked kernel phase uses it. *)

val build : Pgraph.t -> t
(** [build pg] freezes the partitioned graph; O(E + S) time and a
    sequential, deterministic layout (it depends only on [pg]).
    @raise Invalid_argument if the frozen tables disagree with [pg]'s
    own accounting (cannot happen for a well-formed {!Pgraph.t}). *)

val shadow : ?vertex_space:bool -> workers:int -> t -> Ownership.t
(** [shadow ~workers c] creates an {!Ownership} recorder over [c]'s
    accumulator-slot space (or over the vertex space when
    [~vertex_space:true], for kernels whose reduction writes are
    per-vertex), for a kernel run with [~shadow] by the race
    sanitizer. *)

(** A phase's work item: a partition's edges (scatter) or a vertex
    chunk's slots over all partitions (reduce). *)
type span = Part_edges | Chunk_slots

val logs : ?shadow:Ownership.t -> domains:int -> span -> t -> int array array
(** One recording buffer per worker, as long as the phase's largest
    item: a shadowed kernel logs an item's slots with a plain store and
    passes them to {!Ownership.writes}/{!Ownership.reads} after the
    item. Without [shadow] every buffer is empty. *)
