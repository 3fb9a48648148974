(** Speculative superstep re-execution (Spark-style straggler
    mitigation, which GraphX inherits).

    At each superstep barrier the engine compares per-executor busy
    times — already jittered by {!Cost_model.jittered} and stretched by
    any active straggler fault — against the superstep median. When the
    slowest executor exceeds [threshold * median], a speculative clone
    of its tasks is launched on the least-loaded executor and the
    earlier finisher wins.

    Speculation is pure re-accounting: it can only change the modeled
    times, never the computed vertex values, counters, or superstep
    wire bytes. The clone's compute and its re-shuffled ingress are
    itemized on {!Trace.speculation} records, priced through
    {!Cost_model} but kept outside the wire-payload law exactly like
    recovery traffic. *)

type config = private { threshold : float; seed : int }

val config : ?threshold:float -> ?seed:int -> unit -> config
(** [threshold] (default 2.0) is the multiple of the median executor
    busy time past which the slowest executor is declared a straggler;
    must be >= 1. [seed] (default 1) keys the host tie-break draws.
    @raise Spec_error.Error (dsl ["speculation"]) on a threshold below
    1 or not finite. *)

val evaluate :
  config ->
  cost:Cost_model.t ->
  bandwidth:float ->
  step:int ->
  busy:float array ->
  clean_busy:float array ->
  ingress:float array ->
  partitions:int array ->
  float array * Trace.speculation option
(** One barrier's speculation decision. [busy] is the per-executor
    scaled busy time including fault stretch; [clean_busy] the same
    without the stretch (what the clone costs on a healthy host);
    [ingress] the per-executor scaled ingress bytes this superstep
    (what must be re-shuffled to feed the clone); [partitions] the
    partition count hosted per executor; [bandwidth] the effective
    network bytes/s. Returns the effective busy array (clone wins
    rewrite the straggler's and host's entries) and the itemized
    record, or the input unchanged when no executor trips the
    threshold. Deterministic: ties are broken by seeded splitmix64
    draws keyed (seed, step). *)
