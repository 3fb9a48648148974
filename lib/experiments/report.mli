(** Plain-text rendering helpers for the experiment harness. *)

val table : header:string list -> rows:string list list -> string
(** Monospace table with column-width alignment and a rule under the
    header. *)

val fsig : float -> string
(** Compact significant-digit float ("1.23", "45.6", "1234"). *)

val pct : float -> string
(** ["95.3%"]. *)

val seconds : float -> string
(** ["12.3s"] or ["OOM"] for NaN. *)
