(** Typed metric cells: counters, gauges and timers in a named registry.

    Engines record run-level aggregates here (message totals, simulated
    seconds, supersteps) while the per-superstep {!Event} stream carries
    the fine-grained records. A registry is cheap — plain mutable cells
    behind a name table — and metrics with the same name resolve to the
    same cell, so independent code paths accumulate into one counter. *)

type registry
(** A flat namespace of metric cells. *)

type counter
(** Monotone integer count (messages, supersteps, sink writes). *)

type gauge
(** Last-value float (bytes on wire, peak memory). *)

type timer
(** Accumulating float duration. *)

val create_registry : unit -> registry

val counter : registry -> string -> counter
(** Find or create the counter [name]. *)

val gauge : registry -> string -> gauge
(** Find or create the gauge [name]. *)

val timer : registry -> string -> timer
(** Find or create the timer [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> float -> unit

val record : timer -> float -> unit
(** Add one observed span of the given seconds. *)

val time : ?clock:Clock.t -> timer -> (unit -> 'a) -> 'a
(** Run the thunk, recording its duration as read from [clock]
    (default {!Clock.wall}); pass {!Clock.counter} for a deterministic
    measurement in tests. *)

val snapshot : registry -> (string * float) list
(** Every cell's current value, sorted by name. Counters export their
    count, gauges their value, timers their accumulated seconds. *)
