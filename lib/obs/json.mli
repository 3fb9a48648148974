(** Minimal JSON values, printing and parsing.

    The telemetry sinks write JSONL trace files, and tests and tools
    read them back, without a third-party JSON dependency, so this is a
    small self-contained codec: it supports exactly the JSON subset the
    {!Event} records use (objects, arrays, strings, bools, null, ints
    and doubles). Floats are printed with 12 significant digits when
    that re-parses exactly and with 17 otherwise, so a parse of the
    printed form recovers the original double bit-for-bit — the
    round-trip guarantee the reconciliation tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no insignificant whitespace), so one
    value per line is valid JSONL. Non-finite floats have no JSON
    representation and are rendered as [null]. *)

val shortest : float -> string
(** The shortest of [%.12g] and [%.17g] that parses back to the same
    double: the digits {!to_string} prints for a finite float, before it
    marks the number as a float. The compact specs print their numbers
    with it too. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; the error string carries a byte offset.
    Numbers without [.], [e] or [E] parse as {!Int}, all others as
    {!Float}. Trailing non-whitespace input is an error. *)

val member : string -> t -> t option
(** [member key json] looks up [key] when [json] is an {!Obj}. *)

val to_int : t -> int option
(** {!Int} as [int]; {!Float} values are not silently truncated. *)

val to_bool : t -> bool option
(** {!Bool} contents. *)

val to_float : t -> float option
(** {!Float} or {!Int} as [float]; [Null] reads back as [nan] (the
    printer's encoding of non-finite values). *)

val to_list : t -> t list option
(** {!List} contents. *)

val to_string_opt : t -> string option
(** {!String} contents. *)
