(** Random distributions on top of {!Xoshiro}.

    Everything needed by the synthetic dataset generators: power-law
    weights (expected degree sequences of social graphs), alias tables
    for arbitrary discrete distributions (Chung–Lu edge sampling) and
    distinct sampling. *)

type rng = Xoshiro.t

val exponential : rng -> rate:float -> float
(** [exponential rng ~rate] samples Exp(rate). @raise Invalid_argument if
    [rate <= 0]. *)

val geometric : rng -> p:float -> int
(** [geometric rng ~p] is the number of failures before the first success
    of a Bernoulli(p); requires [0 < p <= 1]. *)

val power_law_weights : n:int -> alpha:float -> min_weight:float -> float array
(** [power_law_weights ~n ~alpha ~min_weight] is a deterministic expected
    degree sequence [w.(i) = min_weight *. ((n /. (i+1)) ** (1. /. (alpha -. 1.)))],
    the standard Chung–Lu construction producing a degree distribution
    with power-law exponent [alpha]. *)

module Alias : sig
  (** Walker alias method: O(n) preprocessing, O(1) sampling from an
      arbitrary discrete distribution. *)

  type t

  val create : float array -> t
  (** [create weights] builds a sampler over indices [0 .. n-1] with
      probabilities proportional to [weights]. Weights must be
      non-negative with a positive sum. *)

  val sample : t -> rng -> int
  (** Draw an index. *)

  val size : t -> int
  (** Number of outcomes. *)
end

val sample_distinct : rng -> n:int -> k:int -> int array
(** [sample_distinct rng ~n ~k] draws [k] distinct integers uniformly from
    [\[0, n)], in random order. @raise Invalid_argument if [k > n]. *)
