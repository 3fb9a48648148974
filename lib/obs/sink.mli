(** Pluggable consumers of the telemetry event stream.

    A sink is two callbacks: one per event, one at close. The engines
    never see sinks — they emit through {!Telemetry} — so adding a new
    backend (a socket, a columnar buffer) means implementing this record
    and attaching it to the handle. *)

type t = {
  emit : Event.t -> unit;  (** called once per event, in emission order *)
  close : unit -> unit;  (** flush and release resources; called once *)
}

val ring : ?capacity:int -> unit -> t * (unit -> Event.t list)
(** In-memory ring buffer keeping the last [capacity] events (default
    4096). The second component reads the retained events in emission
    order; reading does not consume them. *)

val collect : unit -> t * (unit -> Event.t list)
(** Keeps every event, for a stream of any length. The second component
    reads them in emission order; reading does not consume them. *)

val jsonl : string -> t
(** Append one JSON object per event to the given file path (truncating
    any existing file). The channel is buffered; [close] flushes. *)

val console : Format.formatter -> t
(** Pretty printer: every event, one line each, as it is emitted. *)
