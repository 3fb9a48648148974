(** Empirical cumulative distribution functions.

    Figure 2 of the paper plots the CDF of the out-degree/in-degree
    ratio over all vertices of each dataset; this module evaluates that
    curve at chosen points. *)

type t

val of_samples : float array -> t
(** Build the empirical CDF of a non-empty sample.
    @raise Invalid_argument on an empty sample. *)

val eval : t -> float -> float
(** [eval t x] is P(X <= x), a step function in [\[0, 1\]]. *)
