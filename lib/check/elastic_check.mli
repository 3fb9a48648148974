(** The scale-event equivalence sanitizer.

    The elasticity layer's core contract is that membership changes and
    host heterogeneity perturb only {e time and locality} — stretched or
    shrunk supersteps, itemized reshuffle records, re-homed partitions —
    and never the computed vertex values or the logical message
    structure. [equivalence] proves it by comparing a static homogeneous
    baseline against an elastic run of the same (algorithm, graph,
    partitioner, seed):

    - bit-identical final vertex values (via
      {!Fault_check.float_attrs_digest} / [int_attrs_digest]) whenever
      the elastic run completed;
    - per-superstep equality of the placement-independent counters
      (active edges, messages, shuffle groups, updated vertices,
      broadcast replicas) over the executed prefix — the remote counts,
      wire bytes and time columns legitimately move with placement, so
      unlike {!Fault_check.equivalence} they are {e not} compared;
    - scale-event conservation: the reshuffle records' membership forms
      an unbroken chain from the initial cluster size, and no reshuffle
      moves more partitions than exist.

    Reshuffle-cost conservation on the elastic trace itself is
    {!Trace_check.validate}'s job. *)

val equivalence :
  ?label:string ->
  ?executors:int ->
  ?num_partitions:int ->
  baseline:Cutfit_bsp.Trace.t ->
  elastic:Cutfit_bsp.Trace.t ->
  baseline_attrs:string ->
  elastic_attrs:string ->
  unit ->
  Violation.t list
(** [equivalence ~baseline ~elastic ~baseline_attrs ~elastic_attrs ()]
    with attribute digests produced by {!Fault_check.float_attrs_digest}
    or any canonical encoding both runs share. [executors] anchors the
    membership chain's starting size; [num_partitions] bounds the moved
    partitions per reshuffle. *)
