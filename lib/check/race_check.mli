(** The dynamic write-ownership race sanitizer.

    The compact kernels' determinism rests on a discipline no type
    checks: within a parallel phase, every accumulator slot is written
    by exactly one work item, and reduction reads of a slot happen only
    after the barrier of the epoch that wrote it. This suite runs
    {e instrumented} mirrors of the four [run_csr] kernels that record
    an [(epoch, slot, item)] shadow event for every accumulator /
    message-buffer write and every reduction consume (see
    {!Cutfit_bsp.Ownership}), checks the records at each
    {!Cutfit_bsp.Par_exec.iter_shadowed} barrier, and reports structured
    violations naming the slot, epoch and conflicting items.

    Rules: [slot-conflict], [premature-read], [consume-conflict] and
    [slot-out-of-range] from the recorder, plus [instr-vs-csr] — the
    instrumented mirror must digest-match the production kernel, which
    is what proves the mirror checks the code we actually ship — and
    [corruption-undetected] from {!self_check}.

    Violations carry suite ["races"]. [domains_counts] defaults to
    [[1; 2; 4]]. Conflicts are item-based and merged deterministically,
    so a discipline breach is reported identically at every domain
    count — including 1.

    All functions return [[]] on success and never raise. The two
    [seeded_*] corruptions are test hooks: no public path runs one
    alone, and the tests that prove each rule fires call them
    directly. *)

val pagerank :
  ?iterations:int -> ?domains_counts:int list -> Cutfit_bsp.Pgraph.t -> Violation.t list

val connected_components :
  ?iterations:int -> ?domains_counts:int list -> Cutfit_bsp.Pgraph.t -> Violation.t list

val shortest_paths :
  ?max_supersteps:int ->
  ?domains_counts:int list ->
  landmarks:int array ->
  Cutfit_bsp.Pgraph.t ->
  Violation.t list

val triangle_count : ?domains_counts:int list -> Cutfit_bsp.Pgraph.t -> Violation.t list
(** Triangle counting tracks the reduce phase's per-vertex writes (the
    scatter phase counts into worker-owned arrays, race-free by
    construction), so its recorder lives in vertex space. *)

val seeded_foreign_write : ?domains:int -> Cutfit_bsp.Pgraph.t -> Violation.t list
(** Run the instrumented PageRank kernel with a shadow-only corruption
    in which two items claim the same slot in one scatter epoch.
    Returns the resulting violations — expected non-empty, with rule
    [slot-conflict] naming both items. Needs [>= 2] partitions. *)

val seeded_premature_read : ?domains:int -> Cutfit_bsp.Pgraph.t -> Violation.t list
(** Same, with an item consuming its own slot before the scatter
    epoch's barrier — expected to surface rule [premature-read]. *)

val self_check : ?domains:int -> Cutfit_bsp.Pgraph.t -> Violation.t list
(** Detector self-test: runs both seeded corruptions and reports a
    [corruption-undetected] violation for any that fails to surface its
    expected rule. Empty iff the detector still detects. *)
