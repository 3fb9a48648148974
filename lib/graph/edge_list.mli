(** Growable edge buffer.

    The mutable builder for directed graphs: generators append edges
    here, then the list is cleaned (dedup, self-loop removal) and
    frozen into a {!Graph.t}, whose {!Graph.symmetrize} gives the
    undirected view. Edges are pairs of dense vertex ids in [\[0, n)]. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty buffer. [capacity] is the initial allocation. *)

val length : t -> int
(** Number of edges currently stored. *)

val add : t -> src:int -> dst:int -> unit
(** Append one directed edge. Amortized O(1). *)

val iter : t -> (src:int -> dst:int -> unit) -> unit
(** Iterate over edges in insertion order. *)

val to_arrays : t -> int array * int array
(** Trimmed copies of the source and destination arrays. *)

val dedup : ?drop_self_loops:bool -> t -> t
(** [dedup t] is a new buffer with duplicate edges removed (and
    self-loops dropped when [drop_self_loops], default [true]).
    Sorts the input as a side effect. *)
