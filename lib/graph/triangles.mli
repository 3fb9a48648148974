(** Exact triangle counting.

    The substrate reference used to characterize datasets (Table 1's
    triangle column) and to verify the triangle-count kernels' totals.
    Edge direction is ignored, as in GraphX's [TriangleCount]. *)

val count : Graph.t -> int
(** Total number of distinct triangles in the undirected view of the
    graph: edge directions, parallel copies and self-loops do not
    count. *)

val global_clustering : Graph.t -> float
(** Ratio of closed triplets: [3 * triangles / open-or-closed wedges];
    0 when the graph has no wedge. *)
