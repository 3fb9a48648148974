(** Incremental repartitioning: refresh a live cut across a mutation
    batch instead of rebuilding it from scratch.

    A refresh reconstructs the streaming state the placements will read
    from the surviving edges of the old cut, then places each inserted
    edge online with the wrapped {!Cutfit_partition.Streaming}
    heuristic — exactly the choice rules the offline stream uses,
    consulted through the same {!Cutfit_partition.Streaming.view}.
    Deletes trigger bounded local repair: surviving edges keep their
    partitions, replica sets shrink, and the cost is accounted by the
    vertices the deletes touched.

    {b Invariant relied on:} a heuristic reads the live state only at
    the endpoints it places, and in the partition loads (see
    {!Cutfit_partition.Streaming}). Every endpoint the refresh places or
    recounts is a delta endpoint, so only the kept edges at a delta
    endpoint replay their replica lists and streamed degrees; every
    other kept edge adds to its partition's load alone. *)

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
    Work is one word-level pass over the kept cut (loads, and a
    membership test of both endpoints in the delta's endpoint set), the
    list-based replay of the kept edges at a delta endpoint, and time
    proportional to the delta. The result equals a full replay of every
    kept edge's replicas and degrees, record for record. Deterministic. @raise Invalid_argument if
    [num_partitions <= 0], or the assignment has the wrong length or
    any partition out of range (deleted edges included). *)
