(** The recovery-equivalence sanitizer.

    The fault layer's core contract is that injected faults perturb only
    the {e time} accounting of a run — stretched supersteps, checkpoint
    writes, itemized recovery records — and never the computed vertex
    values or the communication structure. [equivalence] proves it by
    comparing a fault-free baseline against a faulty run of the same
    (algorithm, graph, partitioner, seed):

    - bit-identical final vertex values (via canonical attribute
      digests) whenever the faulty run completed;
    - per-superstep counter and wire-byte equality (the executed prefix,
      so aborted runs are checked up to the abort);
    - the faulty run's compute supersteps never sum cheaper than the
      baseline's;
    - a genuinely fault-free baseline (no faults, no recoveries).

    Recovery-cost conservation on the faulty trace itself is
    {!Trace_check.validate}'s job. *)

val float_attrs_digest : float array -> string
(** MD5 over the IEEE-754 bits of every attribute — every ULP matters. *)

val int_attrs_digest : int array -> string

val equivalence :
  ?label:string ->
  baseline:Cutfit_bsp.Trace.t ->
  faulty:Cutfit_bsp.Trace.t ->
  baseline_attrs:string ->
  faulty_attrs:string ->
  unit ->
  Violation.t list
(** [equivalence ~baseline ~faulty ~baseline_attrs ~faulty_attrs ()]
    with the attribute digests produced by the digest helpers above (or
    any canonical encoding, as long as both runs use the same one). *)
