(** Run-twice determinism harness.

    The paper's correlations are only as good as the simulator's
    reproducibility: the same graph, partitioner and cluster must yield
    the same trace to the last ULP. These digests canonicalize a trace
    (floats by their IEEE-754 bits) or an event stream (via the
    bit-exact JSONL codec) into an MD5 hex string; {!replay} runs a
    thunk once more and reports a violation when its digest differs
    from one already taken of a complete run. *)

val trace_digest : Cutfit_bsp.Trace.t -> string

val events_digest : Cutfit_obs.Event.t list -> string

val lines_digest : string list -> string
(** Digest of pre-rendered canonical lines (e.g. the workload engine's
    report, serialized through the bit-exact JSONL codec) — the same
    MD5-hex form as the other digests so {!replay} composes. *)

val replay : label:string -> first:string -> (unit -> string) -> Violation.t list
(** [replay ~label ~first f] runs [f] once; [f] should perform a
    complete run and return its digest, and [first] is the digest of
    an earlier complete run of the same configuration (typically the
    run the caller has just sanitized). Reports [determinism/divergence]
    when the two differ. *)

val run_twice : label:string -> (unit -> string) -> Violation.t list
(** [run_twice ~label f] is [replay ~label ~first:(f ()) f]. *)
