(** The compact-kernel sanitizers: the [engines] and [races] suites,
    built on one per-algorithm kernel table.

    The compact {!Cutfit_bsp.Csr} kernels promise more than numerical
    closeness: for every algorithm the flat-array result must equal the
    boxed simulator's vertex values {e bit for bit}, at {e any} domain
    count, twice in a row. The promise is structural — partition-local
    combining in edge order, cross-partition merging in ascending
    partition index, both fixed by the data layout rather than by
    scheduling (see docs/PERFORMANCE.md) — and the [engines] suite is
    what keeps it honest.

    That determinism rests on a discipline no type checks: within a
    parallel phase, every accumulator slot is written by exactly one
    work item, and reduction reads of a slot happen only after the
    barrier of the epoch that wrote it. The [races] suite runs the
    production [run_csr] kernels with a [~shadow] recorder
    ({!Cutfit_bsp.Ownership}), in which each accumulator /
    message-buffer write and each reduction consume becomes an
    [(epoch, slot, item)] shadow event, checked at each
    {!Cutfit_bsp.Par_exec.iter} phase barrier.

    Every check takes one {!Cutfit_bsp.Csr.t}: the kernels leave its
    occupancy bytes all-zero, so the suites share it when they run one
    after another. All functions return [[]] on success and never
    raise. *)

type 'v t = {
  label : string;  (** names the algorithm in violation messages *)
  vertex_space : bool;
      (** the race recorder tracks vertices, not accumulator slots
          (triangle counting's reduce writes per vertex) *)
  digest : 'v -> string;
      (** canonical digest of the final vertex values, bit-exact (via
          {!Fault_check.float_attrs_digest} / [int_attrs_digest]) *)
  csr : domains:int -> ?rounds:int ref -> ?shadow:Cutfit_bsp.Ownership.t -> Cutfit_bsp.Csr.t -> 'v;
      (** the compact kernel with its default iteration cap; [rounds] as in [run_csr] *)
}
(** One algorithm's entry in the kernel table. *)

val pagerank : float array t
(** Float digests (MD5 over IEEE-754 bits) — the one algorithm where
    the fixed reduction order is load-bearing, since float addition
    does not associate. *)

val connected_components : int array t

val shortest_paths : landmarks:int array -> int array array t
(** Each vertex's hop distances to the landmarks, concatenated in
    vertex order. *)

val triangle_count : int array t
(** Per-vertex counts: both engines derive the total from them. The
    scatter phase counts into worker-owned arrays, race-free by
    construction, so the recorder lives in vertex space and tracks the
    reduce's per-vertex writes. *)

val plain : 'v t -> Cutfit_bsp.Csr.t -> string
(** Digest of one unshadowed compact run at one domain. Both suites take
    it lazily as [~plain], so a check that runs both runs it once. *)

val engines :
  'v t ->
  oracle:string ->
  plain:string Lazy.t ->
  domains_counts:int list ->
  Cutfit_bsp.Csr.t ->
  Violation.t list
(** Suite ["engines"]: per domain count, two compact runs compared with
    the boxed engine's [oracle] digest of the same values and with each
    other; at one domain the first run is [plain].

    - rule [boxed-vs-csr]: the compact result's digest differs from the
      oracle's;
    - rule [run-twice]: two identical compact runs disagree with each
      other (a scheduling leak — some write was not item-owned). *)

val races :
  'v t -> plain:string Lazy.t -> domains_counts:int list -> Cutfit_bsp.Csr.t -> Violation.t list
(** Suite ["races"]: per domain count, one compact run under a fresh
    shadow recorder. Rules [slot-conflict], [premature-read],
    [consume-conflict] and [slot-out-of-range] from the recorder, plus
    [instr-vs-csr] — the shadowed run must digest-match [plain], the
    same kernel run without a shadow, so recording never perturbs what
    it checks.
    Conflicts are item-based and merged deterministically, so a
    discipline breach is reported identically at every domain count —
    including 1. *)

val seeded_foreign_write : ?domains:int -> Cutfit_bsp.Csr.t -> Violation.t list
(** Test hook (no public path runs one corruption alone): run the
    PageRank kernel on a shadow pre-seeded with a corruption in which
    items 0 and 1 claim slot 0 in the first scatter epoch. Returns the
    resulting violations — expected non-empty, with rule
    [slot-conflict] naming both items. Needs [>= 2] partitions. *)

val seeded_premature_read : ?domains:int -> Cutfit_bsp.Csr.t -> Violation.t list
(** Same, with item 0 consuming its own slot 0 before the first
    scatter epoch's barrier — expected to surface rule
    [premature-read]. *)

val self_check : ?domains:int -> Cutfit_bsp.Csr.t -> Violation.t list
(** Detector self-test, suite ["races"]: runs both seeded corruptions
    (default 2 domains) and reports a [corruption-undetected] violation
    for any that fails to surface its expected rule. Empty iff the
    detector still detects. *)
