(** Sanitizer for {!Cutfit_bsp.Trace} and its telemetry stream.

    [validate] checks a trace's internal conservation laws: stage
    ordering, non-negative counters, aggregates never outnumbering the
    messages that formed them, remote subsets bounded by their totals,
    zero wire bytes whenever a compute superstep moved nothing between
    executors, the [time_s = max(compute, network) + overhead]
    decomposition, and the total-time roll-up (recomputed with the
    engines' own fold, so compared exactly — with checkpoint, recovery
    and reshuffle time included). Faulty traces additionally satisfy
    the recovery-accounting laws: recoveries never outnumber injected
    faults, and each recovery record carries only the counters its kind
    can produce (replayed steps for rollback, lost partitions for
    lineage). Speculation and reshuffle records satisfy their own shape
    laws. The itemized sums themselves are folds over the records
    ({!Cutfit_bsp.Trace.recovery_s} and its siblings), so there is no
    stored copy to compare them with.

    With [?payload], compute supersteps must additionally satisfy
    [wire_bytes = scale * (remote_shuffles * msg_wire_bytes +
    remote_broadcasts * attr_wire_bytes)] — the "bytes on the wire are
    remote messages times payload" law of the Pregel/GAS engines
    (within 1e-9 relative tolerance, as the engines accumulate bytes
    per executor).

    [reconcile] checks the telemetry contract. Superstep, recovery,
    speculation and reshuffle events carry the trace's own records, and
    the pricer builds each executor profile and the [Run_end] totals
    from the values it stores on the trace, so no payload is compared
    with its source. What it checks ties two separately produced facts
    together: one event per trace record of each kind (one join or
    leave per reshuffle, one [Checkpoint] per checkpoint, one
    [Fault_injected] per injected fault), and at most one [Run_end]. *)

type payload = {
  msg_wire_bytes : float;  (** bytes per remote shuffle aggregate, overhead included *)
  attr_wire_bytes : float;  (** bytes per remote replica refresh, overhead included *)
  scale : float;  (** the run's time/byte scale factor *)
}

val validate : ?payload:payload -> Cutfit_bsp.Trace.t -> Violation.t list

val reconcile : Cutfit_bsp.Trace.t -> Cutfit_obs.Event.t list -> Violation.t list
(** [reconcile trace events] with [events] the telemetry slice of that
    single run (extra [Run_start] records are ignored). *)
