(** xoshiro256** pseudo-random number generator (Blackman & Vigna).

    The workhorse generator for dataset synthesis: better statistical
    quality than {!Splitmix64} over long streams, still fully
    deterministic from its seed. *)

type t
(** Mutable generator state (256 bits). *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream,
    as recommended by the authors. *)

val next_int : t -> int -> int
(** [next_int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val next_float : t -> float
(** Uniform float in [\[0, 1)]. *)

val next_bool : t -> float -> bool
(** [next_bool t p] is [true] with probability [p]. *)
