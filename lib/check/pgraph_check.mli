(** Sanitizer for {!Cutfit_bsp.Pgraph}: validates the frozen distributed
    representation against the assignment it was built from.

    Invariants checked:
    - the assignment has one in-range partition id per edge;
    - every edge appears in exactly one partition's edge list — the list
      of the partition its assignment names;
    - per-vertex replica lists are strictly ascending (sorted, deduped)
      and agree exactly with the presence relation, which the checker
      recomputes from the assignment into a (vertex, partition) bitset
      of its own; [total_replicas] is their sum;
    - [master v = v mod num_partitions] (the GraphX identity-hash
      alignment the paper's DC result depends on);
    - per-partition local vertex-table sizes match the presence
      relation.

    All checks report {!Violation.t} values (capped per rule) rather
    than raising. Cost: O(m + n * ceil(P / 63) + replicas) — replica
    counts are popcounts over each vertex's bitset words, and the local
    table sizes come from one pass over the set bits. *)

val assignment :
  Cutfit_graph.Graph.t -> num_partitions:int -> int array -> Violation.t list
(** Validate a raw edge-to-partition assignment (length and range)
    before any structure is built from it. Unlike
    {!Cutfit_bsp.Pgraph.build}, malformed input yields a structured
    report, not an exception. *)

type view = {
  graph : Cutfit_graph.Graph.t;
  num_partitions : int;
  assignment : int array;
  edges_of_partition : int -> int array;
  replicas : int -> int array;
  master : int -> int;
  local_vertices : int -> int;
  total_replicas : int;
}
(** A partitioned graph as the checker sees it. Tests corrupt individual
    accessors of a real graph's view to prove each rule fires. *)

val view_of_pgraph : Cutfit_bsp.Pgraph.t -> view

val validate_view : view -> Violation.t list

val validate : Cutfit_bsp.Pgraph.t -> Violation.t list
(** [validate_view] of [view_of_pgraph]. Empty list = all invariants
    hold. *)
