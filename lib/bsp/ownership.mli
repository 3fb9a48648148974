(** Shadow write-ownership recorder backing the dynamic race sanitizer.

    The CSR kernels follow an item-owned-writes discipline: within one
    parallel phase (an "epoch"), every accumulator slot is written by at
    most one item, and reduction reads of a slot only happen in a later
    epoch than the write. This module records [(epoch, slot, item)]
    shadow events from the kernels run with a [~shadow] and checks the
    discipline at each barrier. Recording appends to per-worker logs (worker-owned, so
    the recorder itself cannot race); checking runs on the driver domain
    and is deterministic for any domain count because records are merged
    in (item, per-item sequence) order. *)

type t

(** One discipline violation found at a barrier. [rule] is one of
    ["slot-conflict"] (two items wrote the slot in the same epoch),
    ["premature-read"] (a slot was read in the epoch that wrote it),
    ["consume-conflict"] (two items consumed the same slot in one epoch)
    or ["slot-out-of-range"]. *)
type conflict = {
  epoch : int;
  slot : int;
  rule : string;
  first_item : int;
  second_item : int;
}

val create : slots:int -> workers:int -> t
(** [create ~slots ~workers] makes a recorder for a slot space of size
    [slots] with one private log per worker. The first epoch is 1. *)

val write : t -> worker:int -> item:int -> int -> unit
(** [write t ~worker ~item slot] records that [item], running on
    [worker], wrote [slot] in the current epoch. *)

val read : t -> worker:int -> item:int -> int -> unit
(** [read t ~worker ~item slot] records a reduction-side consume. *)

val writes : t -> worker:int -> item:int -> int array -> int -> unit
(** [writes t ~worker ~item buf len] is [write t ~worker ~item buf.(i)]
    for [i] in [\[0, len)], in order: a kernel logs one item's slots
    into a per-worker buffer and hands them over after the item. *)

val reads : t -> worker:int -> item:int -> int array -> int -> unit
(** [reads t ~worker ~item buf len] is the same for {!read}. *)

val barrier : t -> unit
(** Check the epoch's records against the single-writer / read-after-
    barrier discipline, accumulate conflicts, clear the logs and advance
    the epoch. Call from the driver domain only, after the parallel
    phase has joined. *)

val violations : t -> conflict list
(** All conflicts found so far, oldest first. Deterministic across runs
    and domain counts. *)

val epoch : t -> int
val writes_seen : t -> int
val reads_seen : t -> int

val pp_conflict : Format.formatter -> conflict -> unit
