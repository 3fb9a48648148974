(** Plain-text edge-list persistence.

    The on-disk format is the SNAP convention the paper's datasets ship
    in: one ["src dst"] pair per line, ['#']-prefixed comment lines
    ignored. The byte size of this representation is what Table 1's
    "Size" column reports, so it is also computable without writing. *)

val save : string -> Graph.t -> unit
(** Write the graph's edges to the given path. *)

val load : ?n:int -> string -> Graph.t
(** Read an edge list. Vertex count defaults to [1 + max id].
    @raise Failure on malformed lines. *)

val digits : int -> int
(** Decimal digits of a non-negative integer, the width {!save} writes
    it in. *)

val size_bytes : Graph.t -> int
(** Exact byte size the edge list would occupy on disk via {!save}, in
    O(log n): one degree-range sum per decimal width. *)
