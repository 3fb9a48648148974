(** The Pregel engine: GraphX's [Pregel] operator over a vertex-cut
    partitioned graph, with full cost and memory accounting.

    Semantics follow GraphX:
    - superstep 0 applies the vertex program to every vertex with
      [initial_msg], then broadcasts all attributes to their replicas;
    - each later superstep scans the triplets whose endpoints received a
      message, emits messages toward sources and/or destinations, merges
      them first inside each edge partition (the local combiner, a left
      fold in edge order), then shuffles one aggregate per (vertex,
      partition) pair to the vertex's hash-assigned master, where the
      per-partition aggregates merge in ascending partition order —
      a reduction order fixed by the data layout, not by scheduling,
      which the parallel {!Csr} kernels reproduce bit-for-bit. The
      vertex program then runs at the master and ships changed
      attributes back along the routing table;
    - the loop ends when no messages remain, the iteration cap is hit,
      or the memory model trips (GraphX's unbounded lineage).

    Time is modeled, not measured: the engine fills one {!Pricer.counts}
    record per superstep and {!Pricer} prices it — compute is the
    makespan of per-partition work over each executor's cores, network
    is per-executor egress bytes over the NIC, and fixed task-dispatch
    and barrier overheads are added — so granularity, stragglers,
    communication volume and infrastructure speed all shape the result,
    exactly the effects the paper studies. *)

type direction = To_src | To_dst

type ('v, 'm) program = {
  init : int -> 'v;  (** initial attribute per vertex *)
  initial_msg : 'm;  (** delivered to every vertex at superstep 0 *)
  vprog : int -> 'v -> 'm -> 'v;  (** vertex program *)
  send : src:int -> dst:int -> src_attr:'v -> dst_attr:'v -> emit:(direction -> 'm -> unit) -> unit;
      (** message generation over one active triplet: the edge's
          endpoint ids and their current attributes. [emit To_src m] and
          [emit To_dst m] send [m] toward the source or the destination;
          call [emit] any number of times, and only during this [send].
          The engine calls [send] once per edge with an endpoint whose
          vertex program ran in the previous superstep, partition by
          partition in edge order. *)
  merge : 'm -> 'm -> 'm;
      (** message combiner, applied in the fixed order above: a left
          fold in edge order within each partition, then across
          partitions in ascending index order *)
  state_bytes : int;  (** serialized payload of one vertex attribute *)
  msg_bytes : int;  (** serialized payload of one message *)
}

type 'v result = { attrs : 'v array; trace : Trace.t }

val run :
  ?max_supersteps:int ->
  ?scale:float ->
  ?cost:Cost_model.t ->
  ?checkpoint_every:int ->
  ?faults:Faults.config ->
  ?speculation:Speculation.config ->
  ?elastic:Elastic.config ->
  ?hetero:Elastic.hetero ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cluster.t ->
  Pgraph.t ->
  ('v, 'm) program ->
  'v result
(** [run ~cluster pg program] executes to quiescence (or
    [max_supersteps], default 500). [scale] linearly rescales work,
    bytes and memory quantities to the original dataset's size when the
    partitioned graph is a scaled-down analogue (default 1.0).
    [checkpoint_every] writes the materialized graph to storage every k
    supersteps, paying the write time but truncating the driver lineage
    — the standard Spark mitigation for the long-run out-of-memory
    failures the paper hit. On out-of-memory the returned attributes
    reflect the last completed superstep and [trace.outcome] is
    [Out_of_memory].

    [faults] attaches a deterministic {!Faults} schedule: stragglers and
    degraded bandwidth stretch the affected supersteps' time, transient
    shuffle losses and executor crashes append itemized
    {!Trace.recovery} records (rollback replay against the last
    [checkpoint_every] checkpoint, or lineage rebuild of the lost
    partitions, per the config's mode), and crashes beyond the failure
    budget end the run with [trace.outcome = Aborted]. Faults never
    touch the computed attributes: a faulty run's [attrs] are
    bit-identical to the fault-free run's.

    [speculation] enables {!Speculation} straggler mitigation at every
    compute superstep (step >= 1): when the slowest executor's busy
    time exceeds the configured multiple of the median, its tasks are
    cloned onto the least-loaded executor and the earlier finisher
    wins, appending an itemized {!Trace.speculation} record (and
    [Speculative_launch] / [Speculative_win] telemetry). Like faults,
    speculation perturbs only the time accounting — attributes,
    counters and superstep wire bytes are untouched.

    [elastic] attaches a deterministic {!Elastic} scale-event schedule:
    executors join and leave before the scheduled compute supersteps
    (each membership change re-homes the moved partitions as an
    itemized, priced {!Trace.reshuffle} — outside the supersteps' wire
    accounting, like recovery traffic), and spot preemptions route
    through the {!Faults} recovery machinery as involuntary crashes.
    [hetero] gives per-executor speed and bandwidth multipliers that
    divide busy time and scale egress bandwidth. Both perturb only time
    and locality: the converged attributes and the logical message
    structure stay bit-identical to the static homogeneous run, which
    the [elastic] sanitizer suite enforces.

    When [telemetry] is given, every stage (including the [step = -1]
    build stage) emits one {!Cutfit_obs.Event.Superstep} event carrying
    the very record stored in the returned {!Trace.t}, plus its executor
    profile, followed by one [Run_end] record labelled ["pregel"].
    Without it the engine allocates no telemetry records at all. *)
