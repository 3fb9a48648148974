(** The cross-engine equivalence sanitizer.

    The compact {!Cutfit_bsp.Csr} kernels promise more than numerical
    closeness: for every algorithm the flat-array result must equal the
    boxed simulator's vertex values {e bit for bit}, at {e any} domain
    count, twice in a row. The promise is structural — partition-local
    combining in edge order, cross-partition merging in ascending
    partition index, both fixed by the data layout rather than by
    scheduling (see docs/PERFORMANCE.md) — and this suite is what keeps
    it honest.

    Each checker runs the boxed engine once as the oracle, builds the
    {!Cutfit_bsp.Csr} image, then runs the compact kernel twice per
    domain count and compares canonical digests:

    - rule [boxed-vs-csr]: the compact result's digest differs from the
      boxed engine's;
    - rule [run-twice]: two identical compact runs disagree with each
      other (a scheduling leak — some write was not item-owned).

    All functions return [[]] on success and never raise. *)

val pagerank :
  ?iterations:int ->
  ?domains_counts:int list ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  Violation.t list
(** Float digests (MD5 over IEEE-754 bits) — the one algorithm where
    the fixed reduction order is load-bearing, since float addition
    does not associate. Default 10 iterations. *)

val connected_components :
  ?iterations:int ->
  ?domains_counts:int list ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  Violation.t list

val triangle_count :
  ?domains_counts:int list ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  Violation.t list

val shortest_paths :
  ?max_supersteps:int ->
  ?domains_counts:int list ->
  landmarks:int array ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  Violation.t list
