(** Correlation coefficients.

    The paper's headline analysis correlates execution time against each
    partitioning metric (Pearson, reported as percentages like "95%"). *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation of two equal-length samples.
    Returns 0 when either sample is constant.
    @raise Invalid_argument on length mismatch or fewer than 2 points. *)
