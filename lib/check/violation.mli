(** Structured invariant-violation reports.

    Every sanitizer suite returns a list of these instead of tripping
    [assert]: a malformed input produces a clean, printable diagnosis
    that callers can collect, log, or turn into an exit code. *)

type t = {
  suite : string;  (** which sanitizer found it, e.g. ["pgraph"] *)
  rule : string;  (** the violated invariant, e.g. ["edge-coverage"] *)
  detail : string;  (** human-readable specifics with offending values *)
}

exception Violations of t list
(** Raised only by {!raise_if_any} (used by [Pipeline.prepare ?check]);
    the checking functions themselves never raise. *)

val v : suite:string -> rule:string -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [v ~suite ~rule fmt ...] formats the detail field. *)

val pp_list : Format.formatter -> t list -> unit
(** ["all invariants hold"], or the count and one ["[suite] rule:
    detail"] line per violation. *)

val raise_if_any : t list -> unit
(** @raise Violations when the list is non-empty. *)
