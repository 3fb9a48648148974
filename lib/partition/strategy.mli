(** The six hash/modulo vertex-cut strategies evaluated in the paper.

    Four ship with GraphX:
    - {b RVC} (Random Vertex Cut): hash of the ordered (src, dst) pair;
      collocates all same-direction parallel edges.
    - {b 1D} (Edge Partition 1D): hash of the source id; collocates every
      edge leaving a vertex.
    - {b 2D} (Edge Partition 2D): grid of ceil(sqrt N) columns by source
      hash and rows by destination hash; bounds vertex replication by
      2*sqrt(N).
    - {b CRVC} (Canonical Random Vertex Cut): hash of the unordered pair;
      collocates the two directions of a reciprocated edge.

    Two are the paper's proposals, dropping the hash to expose any
    locality carried by raw vertex ids:
    - {b SC} (Source Cut): source id modulo N.
    - {b DC} (Destination Cut): destination id modulo N. *)

type t = Rvc | One_d | Two_d | Crvc | Sc | Dc

val all : t list
(** In the paper's presentation order: RVC, 1D, 2D, CRVC, SC, DC. *)

val to_string : t -> string
(** Paper abbreviation: "RVC", "1D", "2D", "CRVC", "SC", "DC". *)

val of_string : string -> t option
(** Case-insensitive inverse of {!to_string}. *)

val edge_partition : t -> num_partitions:int -> src:int -> dst:int -> int
(** Partition index for one edge; pure, so an edge's placement never
    depends on the rest of the graph (the defining property of the
    hash-family strategies). The partial application
    [edge_partition t ~num_partitions] checks [num_partitions] and
    resolves the strategy once, for loops over many edges.
    @raise Invalid_argument if [num_partitions <= 0] or an endpoint id
    is negative. *)

type tables = {
  modulo : int array;  (** [v mod num_partitions]: SC, DC and the identity-hash master *)
  hashed : int array;  (** [Hashing.hash1 v]: 1D *)
  grid_base : int array;  (** first partition of [v]'s 2D grid column, as a source *)
  grid_row : int array;  (** [v]'s 2D grid row, as a destination, in a full column *)
  grid_row_last : int array;  (** the same in the last column (the non-square fallback) *)
  grid_last_base : int;  (** [grid_base] of the last column *)
}
(** Per-vertex placement tables: every hash-family strategy but RVC and
    CRVC places an edge from one table entry per endpoint. [src -> dst]
    lands in [modulo.(src)] under SC, [hashed.(src)] under 1D,
    [modulo.(dst)] under DC, and under 2D in
    [grid_base.(src) + (if grid_base.(src) < grid_last_base then grid_row.(dst)
    else grid_row_last.(dst))]. RVC places it in [Hashing.hash2 src dst]
    and CRVC in the [hash2] of the ordered pair [(min, max)]. *)

val tables : num_partitions:int -> int -> tables
(** [tables ~num_partitions n] fills the tables for vertices [0 .. n - 1],
    hashing each vertex once, with the same functions as
    {!edge_partition}. O(n).
    @raise Invalid_argument if [num_partitions <= 0]. *)
