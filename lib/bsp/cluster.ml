type storage = Hdd_hdfs | Ssd_local

type t = {
  name : string;
  num_partitions : int;
  executors : int;
  cores_per_executor : int;
  network_gbps : float;
  storage : storage;
  executor_memory_bytes : float;
  driver_memory_bytes : float;
}

(* Executor memory is the paper's 220 GB; the driver JVM heap is the
   usual couple dozen GB. Simulated work quantities are rescaled to the
   original dataset sizes (see Pregel's [scale]), so these are the
   paper's own magnitudes, not scaled-down ones. *)
let base =
  {
    name = "(i)";
    num_partitions = 128;
    executors = 4;
    cores_per_executor = 32;
    network_gbps = 1.0;
    storage = Hdd_hdfs;
    executor_memory_bytes = 220e9;
    driver_memory_bytes = 24e9;
  }

let config_i = base
let config_ii = { base with name = "(ii)"; num_partitions = 256 }
let config_iii = { config_ii with name = "(iii)"; network_gbps = 40.0 }
let config_iv = { config_iii with name = "(iv)"; storage = Ssd_local }

let find s =
  let s = String.lowercase_ascii s in
  let strip = String.concat "" (String.split_on_char '(' (String.concat "" (String.split_on_char ')' s))) in
  match strip with
  | "i" | "128" -> config_i
  | "ii" | "256" -> config_ii
  | "iii" -> config_iii
  | "iv" -> config_iv
  | _ -> raise Not_found

(* TCP + Spark framing keeps goodput below line rate; ~70% is a common
   rule of thumb for shuffle-heavy traffic. *)
let network_bytes_per_s t = t.network_gbps *. 125_000_000.0 *. 0.70

let storage_bytes_per_s t =
  match t.storage with Hdd_hdfs -> 120_000_000.0 | Ssd_local -> 500_000_000.0

let total_cores t = t.executors * t.cores_per_executor

let describe t =
  Printf.sprintf "%s: %d partitions on %d executors x %d cores, %.0f Gbps, %s" t.name
    t.num_partitions t.executors t.cores_per_executor t.network_gbps
    (match t.storage with Hdd_hdfs -> "HDD/HDFS" | Ssd_local -> "local SSD")
