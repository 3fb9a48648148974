(** Seeded edge-mutation batches.

    The paper evaluates frozen edge lists, but its Twitter-scale
    datasets imply a continuously mutating graph. This module generates
    reproducible insert/delete batches from a compact spec in the style
    of the fault DSL ({!Cutfit_bsp.Faults}):

    {v ins@B[-C][:rN] , del@B[-C][:rN] v}

    [ins@3:r64] inserts 64 random edges at batch 3; [del@2-5:r16]
    deletes 16 random edges at each of batches 2..5; items are
    comma-separated and batches are numbered from 1. [rN] defaults to
    [r32] and is at most {!Cutfit_bsp.Spec_error.max_count}, and so is
    the pooled count of the items covering one batch. Every drawn edge
    is a pure splitmix64 function of (seed, batch, i) — batch [k] can
    be regenerated without replaying batches [1..k-1].

    Applying a delta splices the graph with
    {!Cutfit_graph.Graph.splice} (kept edges in build order, inserts
    appended), so the result is a first-class frozen graph equal to a
    {!Cutfit_graph.Graph.create} of the same edge arrays. *)

type kind = Ins | Del

type item = { kind : kind; from_batch : int; to_batch : int; edges : int }

type config = { items : item list; seed : int }

val to_spec : item list -> string
(** Canonical inverse of {!config}'s parse: default edge counts ([r32])
    and single-batch windows print in their shortest form, so
    [(config (to_spec items)).items = items]. *)

val config : ?seed:int -> string -> config
(** [config raw] parses [raw] (default [seed] 42).
    @raise Cutfit_bsp.Spec_error.Error (dsl ["mutations"]) on malformed
    input, or when the items covering some batch pool past the ceiling
    (as {!plan} would). *)

val describe : config -> string
(** One-line spec summary for banners and reports. *)

val max_batch : config -> int
(** Highest batch any item covers (at least 1). *)

type delta = {
  batch : int;
  inserts : (int * int) array;  (** (src, dst) pairs appended in draw order *)
  deletes : int array;  (** pre-delta edge ids, strictly ascending *)
}

val is_empty : delta -> bool

val plan : config -> batch:int -> Cutfit_graph.Graph.t -> delta
(** The mutation batch [batch] against the current graph: inserts drawn
    uniformly over vertex pairs (self-loops nudged off the diagonal),
    deletes drawn as distinct existing edge ids (clamped to the number
    of edges). Deterministic in (config, batch, graph shape). Its
    temporaries are sized by the delta, not the graph.
    @raise Invalid_argument if [batch < 1].
    @raise Cutfit_bsp.Spec_error.Error if the items covering [batch]
    pool more than {!Cutfit_bsp.Spec_error.max_count} inserts or
    deletes; the error names the item that passes it. *)

type applied = {
  delta : delta;
  before : Cutfit_graph.Graph.t;  (** the pre-delta graph *)
  graph : Cutfit_graph.Graph.t;
      (** frozen post-delta graph: kept edges in build order, then the
          inserts in draw order *)
  kept : int array;
      (** surviving pre-delta edge ids in build order: the post-delta
          edge [j] is [before]'s edge [kept.(j)] for
          [j < Array.length kept] *)
}
(** A delta applied once. Everything downstream of a batch (the
    incremental refresh of every cached cut, the priced decision, the
    dynamic sanitizer) reads this one value instead of re-applying the
    delta. *)

val apply : Cutfit_graph.Graph.t -> delta -> applied
(** [apply g delta] builds the post-delta graph once, splicing [g]'s
    adjacency. It is bit-identical to a from-scratch
    {!Cutfit_graph.Graph.create} over the same edge list ({!Dyn_check}'s
    Law 1 compares both, edge and adjacency arrays, on every batch).
    @raise Invalid_argument on out-of-range or unsorted delete ids, or
    out-of-range endpoints. *)
