(** Disjoint-set forest with union by rank and path compression.

    Used for weak connected components and by the generators when they
    stitch a graph into a prescribed number of components. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets [0 .. n-1]. *)

val find : t -> int -> int
(** Representative of the element's set (with path compression). *)

val union : t -> int -> int -> bool
(** [union t a b] merges the two sets; returns [true] iff they were
    previously distinct. *)

val same : t -> int -> int -> bool
(** Whether two elements share a set. *)

val count : t -> int
(** Current number of disjoint sets. *)
