(** Incremental repartitioning: refresh a live cut across a mutation
    batch instead of rebuilding it from scratch.

    A refresh reconstructs the streaming state (replica sets, loads,
    streamed degrees) from the surviving edges of the old cut, then
    places each inserted edge online with the wrapped
    {!Cutfit_partition.Streaming} heuristic — exactly the choice rules
    the offline stream uses, consulted through the same
    {!Cutfit_partition.Streaming.view}. Deletes trigger bounded local
    repair: surviving edges keep their partitions, replica sets shrink,
    and the cost is accounted by the vertices the deletes touched. *)

type refreshed = {
  assignment : int array;
      (** one partition per post-delta edge; kept edges keep their old
          partition, inserts are placed online *)
  placed_edges : int;  (** inserted edges placed by the heuristic *)
  repaired_vertices : int;  (** distinct endpoints of deleted edges *)
  moved_replicas : int;
      (** replica-set entries that differ from the old cut — the
          vertices whose mirrors must be re-broadcast. Counted over the
          delta's endpoints only: every other vertex keeps exactly its
          kept edges, hence its replica set. *)
}

val refresh :
  Cutfit_partition.Streaming.t ->
  num_partitions:int ->
  assignment:int array ->
  Mutation.applied ->
  refreshed
(** [refresh heuristic ~num_partitions ~assignment applied] refreshes
    the cut [assignment] of [applied.before] across the applied delta
    and returns the cut of [applied.graph]. The delta is not re-applied.
    Work is one replay of the kept edges plus time proportional to the
    delta. Deterministic. @raise Invalid_argument if
    [num_partitions <= 0], or the assignment has the wrong length or
    any partition out of range (deleted edges included). *)
