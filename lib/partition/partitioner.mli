(** Unified partitioner interface.

    A partitioner is anything that maps each edge of a graph to one of N
    partitions: the paper's six hash/modulo strategies, the streaming
    extensions, or a user-provided function. *)

type t =
  | Hash of Strategy.t  (** one of the paper's six strategies *)
  | Stream of Streaming.t  (** a streaming extension baseline *)
  | Incremental of Streaming.t
      (** the dynamic-graph wrapper around a streaming heuristic: a cold
          start assigns exactly like [Stream], but mutation deltas are
          repaired in place ({!Cutfit_dynamic.Incremental.refresh})
          instead of re-streaming the whole edge list *)
  | Custom of string * (num_partitions:int -> Cutfit_graph.Graph.t -> int array)
      (** named user-defined assignment *)

val paper_six : t list
(** [Hash] wrappers of {!Strategy.all}. *)

val streaming_baselines : t list
(** DBH, Greedy, HDRF(1.0) and Hybrid(100). *)

val name : t -> string

val of_string : string -> t option
(** Parses paper abbreviations, streaming names, and ["inc-<name>"] for
    the incremental wrapper (e.g. ["inc-greedy"]). *)

val capability : speeds:float array -> executors:int -> t
(** Capability-aware placement for heterogeneous clusters: a [Custom]
    partitioner (named ["capability"]) whose partitions are weighted by
    the speed multiplier of their home executor ([p mod executors], the
    standard cluster mapping — executors beyond the [speeds] array get
    weight 1.0). Each edge is placed by a full-avalanche pair hash into
    the speed-weighted cumulative range it falls in, so faster hosts
    receive proportionally more edges. Deterministic in the edge list.
    @raise Invalid_argument if [executors <= 0] or any speed is
    non-positive. *)

val assign : t -> num_partitions:int -> Cutfit_graph.Graph.t -> int array
(** [assign t ~num_partitions g] returns the partition of every edge
    index. The result always has length [Graph.num_edges g] and values
    in [\[0, num_partitions)]. @raise Invalid_argument if
    [num_partitions <= 0]. *)
