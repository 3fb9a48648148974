(** SplitMix64 pseudo-random number generator.

    A small, fast, splittable generator (Steele, Lea & Flood, OOPSLA 2014)
    used both directly and to seed {!Xoshiro}.  Its finalizer is also the
    64-bit mixing function used throughout the partitioners
    (see {!Cutfit_partition.Hashing}).

    All generators in this project are explicitly seeded so that every
    dataset, partitioning and simulation is reproducible bit-for-bit. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds yield
    independent-looking streams. *)

val mix64 : int64 -> int64
(** [mix64 x] is the stateless SplitMix64 finalizer: a bijective avalanche
    mix of [x].  Suitable as a hash function for 64-bit keys. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val next_int : t -> int -> int
(** [next_int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
