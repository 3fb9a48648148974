(** Sanitizer for {!Cutfit_partition.Metrics}: proves a metrics record
    is the one its graph and assignment actually produce.

    [validate] checks internal consistency — array shapes, non-negative
    counts, [comm_cost >= 2 * cut], and the paper's §3.1 identity
    [comm_cost + non_cut = vertices_to_same + vertices_to_other] — and
    recomputes every field from scratch ({!Cutfit_partition.Metrics.compute} and
    {!Cutfit_partition.Metrics.replica_count}) and demands exact
    agreement — bit-for-bit on floats, since the recomputation runs the
    same deterministic code on the same input. *)

val validate :
  Cutfit_graph.Graph.t ->
  num_partitions:int ->
  int array ->
  Cutfit_partition.Metrics.t ->
  Violation.t list
(** Malformed assignments are reported as violations (via
    {!Pgraph_check.assignment}), never raised. *)
