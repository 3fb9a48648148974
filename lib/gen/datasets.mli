(** Registry of the paper's nine datasets as scaled synthetic analogues.

    The paper's datasets total ~0.5 billion edges and include two
    proprietary Twitter crawls, so each is replaced here by a generator
    configuration roughly 100x smaller that preserves the structural
    features Table 1 and Figures 1–2 report (degree-distribution shape,
    symmetry, leaf fractions, component count, diameter class). The
    mapping is documented per dataset in DESIGN.md / EXPERIMENTS.md. *)

type kind = Road | Social_undirected | Social_directed

type spec = {
  name : string;  (** machine name, e.g. ["roadnet_pa"] *)
  display : string;  (** paper name, e.g. ["RoadNet-PA"] *)
  kind : kind;
  params : [ `Grid of Grid.params | `Social of Social.params ];
  paper_vertices : int;  (** Table 1 vertex count of the original *)
  paper_edges : int;  (** Table 1 edge count of the original *)
}

val all : spec list
(** The nine datasets, in Table 1 order (ascending vertex count). *)

val find : string -> spec
(** Look up by machine [name]. @raise Not_found if unknown. *)

val names : string list

val generate : spec -> Cutfit_graph.Graph.t
(** Generate (or return the memoized) graph for a spec. Deterministic:
    two calls return the same structure. *)

val clear_cache : unit -> unit
(** Drop memoized graphs (tests / memory pressure). *)
