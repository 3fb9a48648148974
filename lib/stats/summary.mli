(** Descriptive statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty sample. *)

val variance : float array -> float
(** Population variance (divides by n); 0 for fewer than 2 samples. *)

val stdev : float array -> float
(** Population standard deviation — the definition behind the paper's
    PartStDev metric. *)

val min_max : float array -> float * float
(** @raise Invalid_argument on an empty sample. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [0 <= q <= 1], linear interpolation between
    order statistics. @raise Invalid_argument on an empty sample. *)

val median : float array -> float

type ptiles = { p50 : float; p95 : float; p99 : float }

val percentiles : float array -> ptiles
(** Nearest-rank p50/p95/p99: each is the smallest sample with at least
    [q * n] samples at or below it — no interpolation, so the result is
    always a value that actually occurred (the convention for tail
    latencies). Deterministic. @raise Invalid_argument on empty. *)

val pp_ptiles : Format.formatter -> ptiles -> unit

type t = { n : int; mean : float; stdev : float; min : float; max : float; median : float }

val describe : float array -> t
(** All of the above in one pass-ish. @raise Invalid_argument on empty. *)
