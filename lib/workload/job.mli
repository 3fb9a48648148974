(** Seeded multi-job stream generator.

    A job is one analytics request against the cluster: an algorithm, a
    dataset analogue, and a partition count, arriving at a simulated
    instant. Streams are drawn from a {!mix} — weighted choices per
    dimension plus a Poisson arrival process — so workload experiments
    can dial reuse up (few graphs, one granularity) or down (many
    graphs, many granularities) while staying bit-reproducible from the
    seed. *)

type t = {
  id : int;  (** 0-based submission index *)
  arrival_s : float;  (** simulated submission instant, strictly increasing *)
  algorithm : Cutfit.Advisor.algorithm;
  dataset : string;  (** a {!Cutfit_gen.Datasets} name *)
  num_partitions : int;
  tenant : string;  (** owning tenant; {!default_tenant} when untagged *)
}

val default_tenant : string
(** ["default"] — the tenant of every job in a single-tenant stream. *)

type mix = {
  name : string;
  description : string;
  algorithms : (Cutfit.Advisor.algorithm * float) list;  (** weighted *)
  datasets : (string * float) list;  (** weighted dataset names *)
  partition_counts : (int * float) list;  (** weighted granularities *)
  mean_interarrival_s : float;  (** exponential inter-arrival mean *)
}

val find_mix : string -> mix option
(** A built-in mix by name: ["uniform"] (everything, two
    granularities), ["reuse-heavy"] (edge-dominated algorithms hammering
    two graphs at one granularity — high partitioning reuse),
    ["churn"] (five graphs at three granularities — low reuse, stresses
    eviction). *)

val mix_names : string list

val generate : seed:int64 -> jobs:int -> ?tenants:(string * float) list -> mix -> t list
(** [generate ~seed ~jobs mix] draws [jobs] jobs, in arrival order.
    Deterministic: the same seed and mix yield the identical stream.
    Draw order per job is fixed (inter-arrival, algorithm, dataset,
    partition count, then — only when [tenants] is non-empty — the
    owning tenant), so streams with the same seed share a prefix and a
    single-tenant stream is byte-identical to one generated without the
    [tenants] argument. @raise Invalid_argument on an unknown dataset
    name, a non-positive weight sum, an empty dimension, [jobs < 0], a
    non-positive mean inter-arrival, or a tenant name that is empty or
    contains ['/']. *)
