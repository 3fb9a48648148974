(** Dataset characterization — the columns of the paper's Table 1.

    For each dataset the paper reports vertex and edge counts, edge
    symmetry (reciprocated fraction), the share of vertices with no
    incoming / outgoing edges, triangle count, number of connected
    components (strongly connected for directed graphs), diameter and
    on-disk size. *)

type t = {
  vertices : int;
  edges : int;
  symmetry_pct : float;  (** percentage of edges whose reverse also exists *)
  zero_in_pct : float;  (** percentage of vertices with in-degree 0 *)
  zero_out_pct : float;  (** percentage of vertices with out-degree 0 *)
  triangles : int;
  components : int;  (** weak connected components *)
  diameter : Diameter.t;
  size_bytes : int;
}

val compute : ?exact_diameter:bool -> Graph.t -> t
(** Measure every column. Diameter is estimated by double sweeps unless
    [exact_diameter] is set (small graphs only). *)

val pp : Format.formatter -> t -> unit
(** One human-readable line, matching Table 1's column order. *)
