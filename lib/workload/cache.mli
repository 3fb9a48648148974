(** Budgeted partitioning cache.

    Partitionings are the expensive, reusable artifact of the pipeline:
    building a frozen {!Cutfit_bsp.Pgraph} costs a load plus a
    per-partition build phase, but the result is immutable and any later
    job on the same [(graph, strategy, num_partitions)] triple can reuse
    it. This cache holds frozen partitioned graphs under a byte budget
    (paper-scale resident bytes, from the cost model's per-edge /
    per-vertex object sizes) and evicts by {!Lru} (least recently used)
    or {!Cost_aware} (cheapest to rebuild per byte goes first).

    Each entry also keeps the traces of the runs priced on its
    partitioning ({!store_trace}, {!find_trace}), so a later run of the
    same algorithm can take the trace instead of running again; they go
    with the entry.

    Every mutation is counted in {!stats}; the accounting obeys the
    conservation laws checked by {!Workload_check.report}.

    Time is the simulation's clock, supplied by the caller: an entry
    inserted with [available_s = t] is invisible to lookups strictly
    before [t] — a partitioning built by a concurrent job cannot be hit
    until its build completes. All operations are deterministic. *)

type key = { graph : string; strategy : string; num_partitions : int }

val key_id : key -> string
(** ["youtube/DC/128"] — canonical, also the JSONL event key. *)

type eviction = Lru | Cost_aware

val eviction_name : eviction -> string
val eviction_of_string : string -> eviction option

type stats = {
  budget_bytes : float;
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidations : int;  (** entries dropped by {!invalidate} *)
  rejections : int;  (** entries larger than the whole budget *)
  bytes_inserted : float;
  bytes_evicted : float;
  bytes_invalidated : float;
  bytes_in_cache : float;  (** recomputed over live entries *)
  entries : int;
}

type t

val create : ?eviction:eviction -> budget_bytes:float -> unit -> t
(** Default eviction {!Lru}. A non-positive budget disables the cache:
    every lookup misses, every insert is rejected. *)

val find : t -> at_s:float -> key -> Cutfit_bsp.Pgraph.t option
(** Counted lookup: increments [lookups] and [hits]/[misses], and on a
    hit refreshes the entry's recency. *)

val mem : t -> at_s:float -> key -> bool
(** Uncounted peek (scheduler cost prediction) — no stats or recency
    effect. *)

val cached_strategies : t -> at_s:float -> graph:string -> num_partitions:int -> string list
(** Strategies with a live, available entry for this graph and
    granularity, in insertion order. Uncounted. *)

val insert :
  t ->
  available_s:float ->
  key ->
  pg:Cutfit_bsp.Pgraph.t ->
  bytes:float ->
  rebuild_s:float ->
  [ `Inserted of (key * float) list | `Rejected ]
(** Insert a freshly built partitioning, evicting until it fits.
    [rebuild_s] is what rebuilding it would cost (the {!Cost_aware}
    victim score is [rebuild_s /. bytes] — cheap-per-byte goes first;
    {!Lru} evicts the least recently touched, ties broken by insertion
    order). Returns the evicted [(key, bytes)] pairs in eviction order,
    or [`Rejected] when [bytes] exceeds the whole budget (nothing is
    evicted for an entry that can never fit). Re-inserting a live key
    replaces it (the old entry counts as evicted). *)

val invalidate : t -> pred:(key -> bool) -> (key * float) list
(** Partial invalidation: drop every entry (live or pending) whose key
    satisfies [pred], in insertion order, returning the dropped
    [(key, bytes)] pairs. The dynamic-graph path drops exactly the
    mutated graph's keys — [pred:(fun k -> k.graph = dataset)] — and
    leaves other datasets' partitionings warm. Counted as
    [invalidations], not [evictions]; the conservation law
    [entries = insertions - evictions - invalidations] holds
    unchanged. *)

val peek_entries : t -> pred:(key -> bool) -> (key * Cutfit_bsp.Pgraph.t) list
(** Uncounted peek at the entries (live or pending) matching [pred], in
    insertion order — what a mutation batch inspects to price
    refreshing each resident partitioning before invalidating. *)

val find_trace :
  t -> key -> pg:Cutfit_bsp.Pgraph.t -> string -> Cutfit_bsp.Trace.t option
(** Uncounted: the trace stored by {!store_trace} under an algorithm
    name on the entry for [key], provided that entry holds [pg] itself
    (physical equality). Traces live and die with their entry: eviction,
    invalidation and re-insert of the key all drop them. *)

val store_trace : t -> key -> pg:Cutfit_bsp.Pgraph.t -> string -> Cutfit_bsp.Trace.t -> unit
(** Keep a run's trace on the entry for [key] under an algorithm name,
    replacing any trace stored under that name, when the entry holds
    [pg] itself; otherwise (no entry, or one holding another
    partitioning) do nothing. The caller vouches that the run is a pure
    function of [pg], the algorithm and settings fixed for the cache's
    lifetime, so a later run could take the stored trace in its place.
    Uncounted. *)

val stats : t -> stats
