(** Elastic cluster membership and heterogeneous host capabilities.

    Scale events are parsed from a compact spec mirroring the fault DSL:

    - [join@T+N] — N executors join before superstep [T] (default +1);
    - [leave@T-N] — N executors drain and leave before superstep [T]
      (default -1; the cluster never shrinks below one executor);
    - [preempt@T:rN] — a spot instance is preempted at superstep [T]'s
      barrier and reacquired after N backoff retries (default r1). The
      preemption flows through the {!Faults} recovery machinery as an
      involuntary crash; membership is unchanged.

    A join or leave delta [N] is at most {!Spec_error.max_count}.

    Every membership change triggers a priced re-shuffle: partitions
    whose round-robin placement moves are re-shipped and their hosted
    vertex views re-broadcast, itemized as [reshuffle] trace records
    outside the superstep wire-payload law (the {!Speculation}
    carve-out). Scale events perturb time and locality only — converged
    vertex values stay bit-identical to a static-cluster run, which
    [Elastic_check] enforces.

    Everything is deterministic: preemption victims and heterogeneity
    multipliers come from stateless splitmix64 draws keyed on
    (seed, salt, item), never from mutable generator state. *)

type item =
  | Join of { step : int; count : int }
  | Leave of { step : int; count : int }
  | Preempt of { step : int; retries : int }

type config = { items : item list; seed : int }

val config : ?seed:int -> string -> config
(** Parse a scale-event spec ("leave@5-1,join@9+2,preempt@12:r1").
    @raise Spec_error.Error (dsl ["scale-events"]) on malformed input. *)

val to_spec : item list -> string
(** Canonical inverse of {!config}'s parse: counts and retries of 1 are
    omitted, so [(config (to_spec items)).items = items] and the printed
    string is the minimal spec for those items. *)

val item_step : item -> int
(** The superstep an event fires at. *)

val total_joins : config -> int
(** Upper bound on executors beyond the initial membership; engines size
    per-executor state to [initial + total_joins]. *)

val victim : config -> step:int -> alive:int -> int
(** Stateless draw of the preempted executor among [alive] live ones. *)

val describe : config -> string

(** {1 Heterogeneous hosts} *)

type hetero = { speeds : float array; bandwidths : float array }
(** Per-executor capability multipliers: busy time divides by [speeds],
    egress bandwidth multiplies by [bandwidths]. *)

val draw_hetero : seed:int -> executors:int -> hetero
(** Stateless multipliers in [0.6, 1.4] keyed on (seed, executor). *)

val hetero_of_spec : executors:int -> string -> hetero
(** Explicit multipliers, one [SPEED] or [SPEED/BANDWIDTH] entry per
    executor, cycled when fewer entries than executors are given.
    @raise Spec_error.Error (dsl ["hetero"]) on malformed input. *)

val describe_hetero : hetero -> string

(** {1 Engine-facing runtime}

    Mutable membership state {!Pricer} consults. With no config
    and no hetero the runtime is inert: [exec_of] is the static
    round-robin placement and every multiplier is 1.0, so static runs
    stay bit-identical. *)

type runtime

val runtime : ?config:config -> ?hetero:hetero -> executors:int -> unit -> runtime

val live : runtime -> int
(** Current executor count (never below 1). *)

val max_executors : runtime -> int
(** [initial + total_joins] — the width to size per-executor state to. *)

val exec_of : runtime -> int -> int
(** Round-robin placement over the {e live} membership. *)

val speed_of : runtime -> int -> float
val bandwidth_of : runtime -> int -> float
(** Multiplier lookups; executors beyond the drawn width (late joiners
    past the sized arrays) run at 1.0, and so does every executor of a
    runtime without hetero. *)

val step_events :
  runtime ->
  step:int ->
  num_partitions:int ->
  partition_bytes:(int -> float) ->
  partition_vertices:(int -> int) ->
  attr_wire_bytes:float ->
  scale:float ->
  bandwidth:float ->
  barrier_s:float ->
  on_reshuffle:([ `Join of int | `Leave of int ] -> Trace.reshuffle -> unit) ->
  on_preempt:(executor:int -> retries:int -> unit) ->
  unit
(** Apply the events scheduled before compute superstep [step]: price
    each membership change and hand it to [on_reshuffle] with the
    spec's join or leave count ([on_reshuffle] fires after the
    membership has moved, so the engine can refresh placement-derived
    state, record the change and emit events), and hand preemptions to
    [on_preempt]. A join or leave that leaves the membership unchanged
    is not reported.
    [partition_bytes] must return the {e scaled} resident bytes of a
    partition; [partition_vertices] its hosted vertex views. *)
