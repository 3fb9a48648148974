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

(** {2 Int-level mixes}

    Each computes its whole key and the {!mix64} finalizer inside this
    module, so only ints cross the call and no [Int64] is boxed. *)

val mix_pair : int64 -> int -> int -> int
(** [mix_pair k u v] is the top 62 bits of
    [mix64 ((u * k) lxor (v + 0x9E3779B97F4A7C15))], a non-negative
    int: an ordered pair hash keyed by the multiplier [k]. *)

val nth_bits53 : seed:int -> int -> int
(** [nth_bits53 ~seed i] is the top 53 bits of [mix64 (seed + i * gamma)],
    the [i]-th output ([i >= 1]) of [create (Int64.of_int seed)], as a
    non-negative int; [float_of_int r /. 2^53] is uniform in \[0, 1). *)

val draw : seed:int -> salt:int -> k:int -> int64
(** [draw ~seed ~salt ~k] is [mix64 ((seed * 0x9E3779B97F4A7C15) lxor
    (salt * 0xBF58476D1CE4E5B9 + k))], a stateless draw: the fault,
    scale-event, mutation and chaos schedules never depend on the order
    they are queried in. *)

val draw_bits53 : seed:int -> salt:int -> k:int -> int
(** The top 53 bits of {!draw} as a non-negative int, with no [Int64]
    crossing the call: [float_of_int r /. 2^53] is bit-identical to
    [unit_float (draw ~seed ~salt ~k)]. *)

val finalizer_key : int
(** [0x94D049BB133111EB - 0xBF58476D1CE4E5B9] (mod 2{^64}) as an int:
    [draw ~seed ~salt:(s + 1) ~k:finalizer_key] keys [s *
    0xBF58476D1CE4E5B9 + 0x94D049BB133111EB], an offset by {!mix64}'s
    second multiplier, which itself lies outside the int range. *)

val unit_float : int64 -> float
(** [unit_float h] is the top 53 bits of [h] scaled to \[0, 1). *)

val draw_mod : int64 -> int -> int
(** [draw_mod h m] is the top 63 bits of [h] modulo [m], in
    [\[0, m)] for [m > 0]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val next_int : t -> int -> int
(** [next_int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
