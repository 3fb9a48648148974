(** Weak connected components via union-find (edge direction ignored),
    behind Table 1's "Conn.Comp." column: the paper names strongly
    connected components, but its counts are only consistent with weak
    ones. *)

val weak : Graph.t -> int array * int
(** [weak g] is [(label, count)]: [label.(v)] identifies the weak
    component of [v] as the smallest vertex id it contains, and [count]
    is the number of components. *)

val weak_count : Graph.t -> int
(** Just the number of weak components. *)
