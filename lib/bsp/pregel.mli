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
    record per superstep (or, for a [static_emits] program, passes the
    last charged one again when a superstep repeats its active edges
    and placement) and {!Pricer} prices it — compute is the
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
  static_emits : bool;
      (** [true] promises that the [emit] calls one [send ~src ~dst]
          makes (how many, in which order, in which direction) depend
          only on [src] and [dst], never on vertex values — PageRank's
          every-edge sends. The charges of a superstep then follow from
          its set of active edges and its partition placement alone,
          so a superstep whose active edges and placement equal those
          of the last charged one is priced from that step's stored
          counts. Under {!run} it runs values only (the same [send],
          [flush] and [apply] calls); under {!price} it calls nothing.
          Either way the trace and the events are those of a [false]
          run, bit for bit, and so are {!run}'s values. A program whose
          emissions read its values (CC and SSSP compare before they
          emit) must say [false]; nothing is then stored or compared.

          The guard, under {!run} only: a repeated superstep counts its
          active edges, emits, first messages per partition and
          updated vertices, and raises [Invalid_argument] when one
          differs from the stored counts. It cannot see an emission
          that keeps those totals but moves a message to another
          target or direction, nor a step that is never repeated.
          {!price} runs no repeated step, so it checks nothing. *)
  state_bytes : int;  (** serialized payload of one vertex attribute *)
  msg_bytes : int;  (** serialized payload of one message *)
}

val run :
  ?max_supersteps:int ->
  ?scale:float ->
  ?cost:Cost_model.t ->
  ?what_if:Pricer.what_if ->
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
    [what_if] (default {!Pricer.static}) is the checkpoint cadence,
    fault schedule, speculation, scale events and host heterogeneity
    the run is priced under; see {!Pricer.what_if}. On out-of-memory
    the program's values reflect the last completed superstep and
    [trace.outcome] is [Out_of_memory]; a crash past the failure budget
    ends it [Aborted]. Neither changes a completed run's values: a
    perturbed run's program state is bit-identical to the static
    run's.

    When [telemetry] is given, every stage (including the [step = -1]
    build stage) emits one {!Cutfit_obs.Event.Superstep} event carrying
    the very record stored in the returned {!Trace.t}, plus its executor
    profile, followed by one [Run_end] record labelled ["pregel"].
    Without it the engine allocates no telemetry records at all. *)

val price :
  ?max_supersteps:int ->
  ?scale:float ->
  ?cost:Cost_model.t ->
  ?what_if:Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cluster.t ->
  Pgraph.t ->
  program ->
  Trace.t
(** [price] is {!run} for a caller that discards the values: the same
    trace, the same events and the same failures, bit for bit. A
    [static_emits] program's repeated supersteps run no scan, no
    program call and no broadcast, so the program's state after
    [price] is unspecified and the [static_emits] guard does not run:
    a program whose declaration is false is priced from counts nobody
    checked. Only {!run} reads values and checks the declaration. For
    a program that does not declare [static_emits], [price] runs
    exactly {!run}'s code. *)
