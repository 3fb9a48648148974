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

(** A vertex program over vertex ids. The program owns its vertex
    state: the values, one partial per vertex for the partition being
    scanned, and one master accumulator per vertex, typically in flat
    typed arrays. The engine owns the control flow and every charge, and
    tells the program when to store and when to merge.

    A program starts in its state after superstep 0, that is after
    GraphX applies the vertex program to every vertex with the initial
    message. The engine still charges superstep 0 (one vprog and one
    full broadcast), but calls no program function there.

    Within each later superstep the calls come in this order:
    - [send] for every active edge, partition by partition in edge
      order;
    - after each partition's scan, [flush] for every vertex that got a
      message in it, in first-touch order;
    - after all partitions, [apply] for every vertex that got a message
      anywhere, in first-touch order. *)
type program = {
  send : src:int -> dst:int -> emit:(direction -> bool) -> unit;
      (** Message generation over one active triplet. The engine calls
          [send] once per edge with an endpoint whose vertex program
          ran in the previous superstep. The program reads the
          endpoints' values from its own state. [emit To_src] and
          [emit To_dst] send one message toward the source or the
          destination and make the engine's charges for it; call [emit]
          any number of times, and only during this [send]. [emit d]
          returns [true] when this is the target's first message in the
          current partition: the program then stores the message as the
          target's partial. It returns [false] otherwise, and the program
          merges the message into the partial (a left fold in edge
          order). *)
  flush : int -> first:bool -> unit;
      (** [flush v ~first] moves [v]'s partial into its master
          accumulator: a store when [first] is set (this is the first
          partition this superstep that messaged [v]), a merge
          otherwise. Flushes run in ascending partition order, so each
          accumulator is a left fold over ascending partition indices. *)
  apply : int -> unit;
      (** [apply v] runs the vertex program at [v]'s master with its
          accumulator; the engine then ships [v]'s value to its
          replicas. Values read by [send] must change only here. *)
  state_bytes : int;  (** serialized payload of one vertex attribute *)
  msg_bytes : int;  (** serialized payload of one message *)
}

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
  program ->
  Trace.t
(** [run ~cluster pg program] executes to quiescence (or
    [max_supersteps], default 500) and returns the trace; the values
    are in the program's own state. [scale] linearly rescales work,
    bytes and memory quantities to the original dataset's size when the
    partitioned graph is a scaled-down analogue (default 1.0).
    [checkpoint_every] writes the materialized graph to storage every k
    supersteps, paying the write time but truncating the driver lineage
    — the standard Spark mitigation for the long-run out-of-memory
    failures the paper hit. On out-of-memory the program's values
    reflect the last completed superstep and [trace.outcome] is
    [Out_of_memory].

    [faults] attaches a deterministic {!Faults} schedule: stragglers and
    degraded bandwidth stretch the affected supersteps' time, transient
    shuffle losses and executor crashes append itemized
    {!Trace.recovery} records (rollback replay against the last
    [checkpoint_every] checkpoint, or lineage rebuild of the lost
    partitions, per the config's mode), and crashes beyond the failure
    budget end the run with [trace.outcome = Aborted]. Faults never
    touch the computed values: a faulty run's program state is
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
