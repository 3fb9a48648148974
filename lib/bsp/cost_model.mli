(** Cost model of the simulated GraphX runtime.

    Execution time in this reproduction is not wall-clock: it is the
    modeled cost of the actual work and message trace each algorithm
    produces on the partitioned graph. The constants below are JVM-era
    GraphX magnitudes — a few microseconds of effective cost per edge or
    message once JVM object churn and GC are amortized in (the "ninja
    gap" of Satish et al.), milliseconds per task dispatched; their
    absolute values set the time unit, while the paper-shape results
    depend on their ratios. Every constant is a record field so the
    bench's ablation experiment can perturb them. *)

type t = {
  build_edge_s : float;  (** graph construction cost per edge (one-time) *)
  build_vertex_s : float;  (** local vertex table construction per entry (one-time) *)
  shuffle_edge_bytes : int;  (** bytes shuffled per edge while partitioning the graph *)
  edge_scan_s : float;  (** scanning one edge triplet during sendMsg *)
  msg_merge_s : float;  (** merging one message into a local combiner *)
  msg_wire_overhead_bytes : int;  (** framing bytes added to each message *)
  msg_serialize_s : float;  (** CPU cost to (de)serialize one remote message *)
  vprog_s : float;  (** applying the vertex program once *)
  task_dispatch_s : float;  (** per-task (per-partition per-superstep) scheduling cost *)
  superstep_barrier_s : float;  (** fixed per-superstep driver/barrier latency *)
  cut_vertex_reduce_s : float;
      (** per-cut-vertex reduction overhead when synchronizing large
          (collection-valued) vertex state, as in triangle counting *)
  array_element_s : float;
      (** per-element cost of serializing collection-valued vertex state *)
  intersect_probe_s : float;
      (** per-probe cost of a neighbour-set membership test during
          triangle counting *)
  edge_skip_s : float;  (** skipping one inactive edge during an indexed scan *)
  edge_object_bytes : int;  (** resident JVM bytes per edge in a partition *)
  vertex_object_bytes : int;  (** resident JVM bytes per local vertex entry *)
  driver_meta_per_task_bytes : float;
      (** driver-side lineage/metadata retained per task per superstep;
          GraphX's unbounded Pregel lineage is what blows up the
          hundreds-of-supersteps SSSP runs on road networks *)
  gc_jitter : float;
      (** amplitude of per-task JVM jitter (GC pauses, JIT): each task's
          work is multiplied by a deterministic factor in
          [1, 1 + gc_jitter]. Heterogeneous tasks pack better over more,
          smaller partitions — the paper's granularity effect. *)
  retry_backoff_base_s : float;
      (** first-attempt backoff delay when a transient shuffle loss forces
          a retransmission *)
  retry_backoff_cap_s : float;  (** ceiling on any single backoff delay *)
  speculation_rpc_s : float;
      (** driver round-trip to launch (and later kill) a speculative
          clone of a straggling executor's tasks — charged once per
          speculation on top of the re-dispatch cost *)
}

val default : t
(** The calibrated constants used throughout the evaluation. *)

val jittered : t -> step:int -> float array -> float array
(** [jittered t ~step work] is the per-partition [work] array with each
    task's deterministic jitter multiplier in [\[1, 1 + gc_jitter\]]
    applied ([work.(p)] is partition [p]'s
    single-core seconds). The engines schedule this array; the telemetry
    layer reads its extrema as the superstep's task-skew signal. *)

val makespan : work:float array -> cores:int -> float
(** Time to drain per-task single-core [work] seconds on [cores]
    identical cores: [max (max_i work) (sum work / cores)], the standard
    two-sided bound for list scheduling. *)

val retry_backoff : t -> retries:int -> float
(** Total capped exponential backoff delay accumulated over [retries]
    successive shuffle retransmission attempts:
    [sum_i min cap (base * 2^i)]. *)
