(** The telemetry handle the engines write to.

    A handle bundles a {!Metric} registry (run-level aggregates) with a
    list of {!Sink}s (the per-event stream). Engines take an optional
    handle — [?telemetry] — and emit nothing when it is absent, so the
    default path allocates no telemetry records at all; attaching even
    one sink turns on the full per-superstep stream.

    Typical use:

    {[
      let sink = Cutfit_obs.Sink.jsonl "trace.jsonl" in
      let t = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
      let p = Pipeline.prepare ~telemetry:t ~algorithm:Advisor.Pagerank g in
      let _ranks, _trace = Pipeline.pagerank p in
      Cutfit_obs.Telemetry.close t
    ]} *)

type t

val create : ?sinks:Sink.t list -> unit -> t
(** A handle with the given sinks (default none) and a fresh registry.
    A handle without sinks still accumulates registry metrics. *)

val metrics : t -> Metric.registry
(** The handle's metric registry. *)

val emit : t -> Event.t -> unit
(** Deliver one event to every attached sink, in attachment order. *)

val events_emitted : t -> int
(** Events delivered through {!emit} so far (counts once per event, not
    per sink). *)

val close : t -> unit
(** Close every sink. Idempotent; later {!emit}s are dropped. *)
