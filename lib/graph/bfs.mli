(** Breadth-first search: the distance computations behind the diameter
    estimator. Hops follow out edges; with [~undirected:true] edges are
    traversed in both directions. *)

val eccentricity : ?undirected:bool -> Graph.t -> int -> int
(** Greatest finite distance from the vertex; 0 for an isolated vertex. *)

val farthest : ?undirected:bool -> Graph.t -> int -> int * int
(** [farthest g v] is [(u, d)] where [u] is a vertex at the greatest
    finite distance [d] from [v]. *)
