(** Cluster model: the paper's Spark deployment, scaled.

    The paper runs 1 driver + 4 executors (32 cores, 220 GB each) over
    1 Gbps Ethernet, reading datasets from HDFS on hard disks. Because
    our dataset analogues are ~100x smaller, executor memory is scaled
    down by the same factor (so the memory-pressure effects — the SSSP
    out-of-memory failures on road networks — reproduce at scale).

    Four configurations are evaluated:
    - {b (i)}   128 partitions, 1 Gbps, HDFS on HDD;
    - {b (ii)}  256 partitions, 1 Gbps, HDFS on HDD;
    - {b (iii)} 256 partitions, 40 Gbps, HDFS on HDD;
    - {b (iv)}  256 partitions, 40 Gbps, local SSD. *)

type storage = Hdd_hdfs | Ssd_local

type t = {
  name : string;  (** "(i)" ... "(iv)" *)
  num_partitions : int;
  executors : int;
  cores_per_executor : int;
  network_gbps : float;
  storage : storage;
  executor_memory_bytes : float;
  driver_memory_bytes : float;
}

val config_i : t
val config_ii : t
val config_iii : t
val config_iv : t

val find : string -> t
(** Look up by name ("i", "(i)", "128", ...). @raise Not_found. *)

val network_bytes_per_s : t -> float
(** Usable per-executor NIC bandwidth in bytes/second. *)

val storage_bytes_per_s : t -> float
(** Per-executor sequential read bandwidth of the storage tier. *)

val total_cores : t -> int

val describe : t -> string
(** One-line human description (name, partitions, executors, network,
    storage), used by the telemetry console sink and the CLI. *)
