(** Discrete power-law exponent estimation.

    The paper's Figure 1 shows the degree distributions of the nine
    datasets and notes that "although all datasets exhibit fat-tailed
    distributions... not all seem to be power-law distributions". The
    maximum-likelihood estimator of Clauset, Shalizi & Newman quantifies
    that: the fitted exponent (and how much of the sample lies in the
    fitted tail) distinguishes the social graphs' heavy tails from the
    road networks' near-constant degrees. *)

type fit = {
  alpha : float;  (** estimated exponent of P(x) proportional to x^-alpha *)
  x_min : int;  (** smallest value included in the tail fit *)
  tail_fraction : float;  (** fraction of samples with value >= x_min *)
}

val fit_alpha : ?x_min:int -> int array -> fit option
(** [fit_alpha values] estimates the exponent over samples [>= x_min]
    (default 2) with the discrete MLE
    [alpha = 1 + n / sum (ln (x / (x_min - 0.5)))].
    [None] when fewer than 10 samples reach the tail. *)
