(** Plain-text edge-list persistence.

    The on-disk format is the SNAP convention the paper's datasets ship
    in: one ["src dst"] pair per line, ['#']-prefixed comment lines
    ignored. The byte size of this representation is what Table 1's
    "Size" column reports, so it is also computable without writing. *)

val save : string -> Graph.t -> unit
(** Write the graph's edges to the given path. *)

val load : string -> (Graph.t, string) result
(** Read an edge list; the vertex count is [1 + max id]. Space- and
    tab-separated ids are both accepted. [Error] names the path, the
    line and the reason for a malformed line (not two fields, an id
    that is not an integer, is negative or needs a vertex count above
    [Sys.max_array_length]) or an unreadable file, and names the path
    and the largest id when its vertex arrays cannot be allocated; no
    input raises. *)

val size_bytes : Graph.t -> int
(** Exact byte size the edge list would occupy on disk via {!save}, in
    O(log n): one degree-range sum per decimal width. *)
