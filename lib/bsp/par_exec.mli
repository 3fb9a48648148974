(** Multicore superstep driver: a fixed pool of OCaml 5 domains with a
    barrier between phases.

    The pool executes one {e phase} at a time (a scatter over partitions
    or a reduce over vertex chunks); {!iter} returns only when every
    worker has finished, so a phase's writes happen-before the
    next phase's reads. Work items are handed out dynamically through an
    atomic cursor — scheduling is therefore nondeterministic, and
    determinism of the {e results} comes from the data layout instead:
    every work item writes only item-owned state (a partition owns its
    accumulator-slot range, a vertex chunk owns its vertices), so the
    final memory state is independent of which domain ran what when.
    See docs/PERFORMANCE.md for the full argument.

    With [domains = 1] no domain is ever spawned and all work runs
    inline on the caller — the default everywhere, keeping single-core
    behaviour byte-identical to a world without this module. *)

type t
(** A worker pool: the calling domain plus [domains - 1] spawned
    domains. Not thread-safe; drive it from the creating domain only. *)

val iter : ?shadow:Ownership.t -> t -> n:int -> (int -> int -> unit) -> unit
(** [iter t ~n f] calls [f w i] exactly once for every [i] in
    [\[0, n)], where [w] is the worker that claimed item [i]. Items are
    claimed dynamically (atomic cursor) for load balance; [f] must
    confine its writes to state owned by item [i] (or by worker [w]) so
    the outcome is schedule-independent. It returns only when every
    worker has finished — a barrier — and an exception in any worker is
    re-raised here after the barrier.

    With [~shadow], [f] records its accumulator writes and reduction
    reads into [shadow] (see {!Ownership}), and [Ownership.barrier
    shadow] runs after the phase, checking the epoch's records against
    the item-owned-writes discipline. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] spawns [domains - 1] worker domains (none
    when [domains = 1]), runs [f] on the pool, then terminates and joins
    the workers, also on exception.
    @raise Invalid_argument when [domains < 1]. *)
