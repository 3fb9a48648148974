(** The dynamic write-ownership race sanitizer.

    The compact kernels' determinism rests on a discipline no type
    checks: within a parallel phase, every accumulator slot is written
    by exactly one work item, and reduction reads of a slot happen only
    after the barrier of the epoch that wrote it. This suite runs the
    production [run_csr] kernels of all four algorithms with a [~shadow]
    recorder ({!Cutfit_bsp.Ownership}), in which each accumulator /
    message-buffer write and each reduction consume becomes an
    [(epoch, slot, item)] shadow event. The recorder is checked at each
    {!Cutfit_bsp.Par_exec.iter} phase barrier, and a breach becomes a
    structured violation naming the slot, epoch and conflicting items.

    Rules: [slot-conflict], [premature-read], [consume-conflict] and
    [slot-out-of-range] from the recorder, plus [instr-vs-csr] — the
    shadowed run must digest-match the same kernel run without a
    shadow, so recording never perturbs what it checks — and
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
(** Run the PageRank kernel on a shadow pre-seeded with a corruption in
    which items 0 and 1 claim slot 0 in the first scatter epoch.
    Returns the resulting violations — expected non-empty, with rule
    [slot-conflict] naming both items. Needs [>= 2] partitions. *)

val seeded_premature_read : ?domains:int -> Cutfit_bsp.Pgraph.t -> Violation.t list
(** Same, with item 0 consuming its own slot 0 before the first
    scatter epoch's barrier — expected to surface rule
    [premature-read]. *)

val self_check : ?domains:int -> Cutfit_bsp.Pgraph.t -> Violation.t list
(** Detector self-test: runs both seeded corruptions and reports a
    [corruption-undetected] violation for any that fails to surface its
    expected rule. Empty iff the detector still detects. *)
