(** Correlation coefficients.

    The paper's headline analysis correlates execution time against each
    partitioning metric (Pearson, reported as percentages like "95%").
    Spearman is provided as a robustness check on the same data. *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation of two equal-length samples.
    Returns 0 when either sample is constant.
    @raise Invalid_argument on length mismatch or fewer than 2 points. *)

val spearman : float array -> float array -> float
(** Rank correlation (average ranks for ties). Same error conditions. *)
