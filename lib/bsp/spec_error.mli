(** The compact specs' shared grammar: one reader, one printer and one
    structured error for every compact-spec DSL.

    The fault schedule ({!Faults}), scale-event ({!Elastic}),
    heterogeneity ({!Elastic.hetero_of_spec}), mutation
    ([Cutfit_dynamic.Mutation]) and chaos-scenario
    ([Cutfit_chaos.Scenario]) parsers read their tokens through this
    module and report malformed input through {!Error}, so a bad spec
    always surfaces as the same record — which DSL, which item, what
    went wrong — and the same message shape, wherever it was typed.

    The lexical rules every DSL shares:
    {v
    list     ITEM,ITEM,...       split on the separator (',' unless the
                                 DSL says otherwise), each item trimmed,
                                 empty items dropped; a list with no
                                 item left is an error
    item     KIND@HEAD[:OPTION]...
    option   cV                  one letter c, then its value V; each
                                 letter at most once, and only the
                                 letters the kind allows
    window   K | K-L             an inclusive range, K <= L
    entry    NAME[:NUMBER]       a nonempty name without '/', and a
                                 positive number
    integer                      OCaml integer syntax
    number                       OCaml float syntax, finite
    v}
    Every token (kind, head, option, number, name) is trimmed, so
    whitespace around any of them is ignored.

    A spec prints its numbers with {!float_lit}, the shortest form that
    parses back to the same double, so [parse (to_spec x) = x] holds for
    every DSL. *)

type t = {
  dsl : string;  (** the grammar, e.g. ["faults"], ["scale-events"], ["mutations"] *)
  item : string option;  (** the offending comma-separated item, when one is known *)
  reason : string;  (** human-readable specifics with offending values *)
}

exception Error of t

val fail : dsl:string -> ?item:string -> ('a, unit, string, 'b) format4 -> 'a
(** Format the reason and raise {!Error}. *)

val message : t -> string
(** Canonical rendering: ["<dsl> spec, item \"<item>\": <reason>"] (the
    item clause omitted when none is known). *)

(** {1 Reading}

    Every reader raises {!Error} with the given [dsl] and [item]. *)

val items : ?sep:char -> string -> string list
(** The items of a list, possibly none. *)

val list :
  dsl:string ->
  ?item:string ->
  ?sep:char ->
  what:string ->
  (string -> 'a) ->
  string ->
  'a list
(** [list ~what f raw] reads each item of [raw] with [f]; a list with
    no item is the error ["no <what> given in <raw>"]. *)

val kind_args : dsl:string -> string -> string * string * string list
(** [KIND@HEAD:OPTION...] as [(kind, head, options)]. *)

val int : dsl:string -> item:string -> string -> int
val float : dsl:string -> item:string -> string -> float

val max_count : int
(** The ceiling on a count that sizes an allocation: 1,000,000. The
    CLI bounds [--jobs] and [--slots] by it too. *)

val count : dsl:string -> item:string -> string -> int
(** {!int}, refused above {!max_count}, so a count that parses cannot
    ask for terabytes. Each DSL keeps its own lower bound. *)

val window : dsl:string -> item:string -> string -> int * int
(** [K] as [(K, K)], [K-L] as [(K, L)]. *)

val options : dsl:string -> item:string -> allowed:string -> string list -> char -> string option
(** [options ~allowed opts] checks each option of [opts] and returns the
    lookup of an option letter's raw value. *)

val entry : dsl:string -> item:string -> string -> string * float option
(** [NAME] as [(NAME, None)], [NAME:NUMBER] as [(NAME, Some NUMBER)]. *)

(** {1 Printing} *)

val float_lit : float -> string
(** The shortest literal that parses back to the same double
    ({!Cutfit_obs.Json.shortest}), without a ['+'] in its exponent. *)

val window_lit : int -> int -> string
(** The inverse of {!window}: [K] when [K = L], else [K-L]. *)
