(** Descriptive statistics over float samples. *)

val stdev : float array -> float
(** Population standard deviation — the definition behind the paper's
    PartStDev metric. *)

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

val commas : int -> string
(** ["12,345,678"]: the formatting of Tables 2 and 3 and of counts. *)
