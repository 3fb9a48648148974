(** Sanitizer for {!Cutfit_bsp.Trace} and its telemetry stream.

    [validate] checks a trace's internal conservation laws: stage
    ordering, non-negative counters, aggregates never outnumbering the
    messages that formed them, remote subsets bounded by their totals,
    zero wire bytes whenever a compute superstep moved nothing between
    executors, the [time_s = max(compute, network) + overhead]
    decomposition, and the total-time roll-up (recomputed with the
    engines' own fold, so compared exactly — with checkpoint and
    recovery time included). Faulty traces additionally satisfy the
    recovery-accounting laws: itemized recoveries sum bit-exactly to
    [recovery_s], recoveries never outnumber injected faults, and each
    recovery record carries only the counters its kind can produce
    (replayed steps for rollback, lost partitions for lineage).

    With [?payload], compute supersteps must additionally satisfy
    [wire_bytes = scale * (remote_shuffles * msg_wire_bytes +
    remote_broadcasts * attr_wire_bytes)] — the "bytes on the wire are
    remote messages times payload" law of the Pregel/GAS engines
    (within 1e-9 relative tolerance, as the engines accumulate bytes
    per executor).

    [reconcile] checks the telemetry contract. Superstep, recovery,
    speculation and reshuffle events carry the trace's own records, so
    their fields agree by construction; what it checks are the laws
    that still constrain values: one event per trace record of each
    kind (and one join or leave per reshuffle), executor busy/barrier
    decompositions that rebuild [compute_s], checkpoint events that
    match the trace's checkpoint count and write time, [Fault_injected]
    events that count the trace's [faults_injected], and a single
    [Run_end] record that matches the trace's own aggregates. *)

type payload = {
  msg_wire_bytes : float;  (** bytes per remote shuffle aggregate, overhead included *)
  attr_wire_bytes : float;  (** bytes per remote replica refresh, overhead included *)
  scale : float;  (** the run's time/byte scale factor *)
}

val validate : ?payload:payload -> Cutfit_bsp.Trace.t -> Violation.t list

val reconcile : Cutfit_bsp.Trace.t -> Cutfit_obs.Event.t list -> Violation.t list
(** [reconcile trace events] with [events] the telemetry slice of that
    single run (extra [Run_start] records are ignored). *)
