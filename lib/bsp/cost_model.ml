type t = {
  build_edge_s : float;
  build_vertex_s : float;
  shuffle_edge_bytes : int;
  edge_scan_s : float;
  msg_merge_s : float;
  msg_wire_overhead_bytes : int;
  msg_serialize_s : float;
  vprog_s : float;
  task_dispatch_s : float;
  superstep_barrier_s : float;
  cut_vertex_reduce_s : float;
  array_element_s : float;
  intersect_probe_s : float;
  edge_skip_s : float;
  edge_object_bytes : int;
  vertex_object_bytes : int;
  driver_meta_per_task_bytes : float;
  gc_jitter : float;
  retry_backoff_base_s : float;
  retry_backoff_cap_s : float;
  speculation_rpc_s : float;
}

let default =
  {
    build_edge_s = 1.5e-6;
    build_vertex_s = 1.0e-6;
    shuffle_edge_bytes = 20;
    edge_scan_s = 8.0e-7;
    msg_merge_s = 4.0e-7;
    msg_wire_overhead_bytes = 12;
    msg_serialize_s = 6.0e-7;
    vprog_s = 5.0e-7;
    task_dispatch_s = 4.0e-4;
    superstep_barrier_s = 1.0e-2;
    cut_vertex_reduce_s = 4.0e-4;
    array_element_s = 2.5e-8;
    intersect_probe_s = 1.0e-7;
    edge_skip_s = 3.5e-7;
    edge_object_bytes = 48;
    vertex_object_bytes = 96;
    driver_meta_per_task_bytes = 2.0e6;
    gc_jitter = 0.6;
    retry_backoff_base_s = 0.05;
    retry_backoff_cap_s = 2.0;
    speculation_rpc_s = 2.0e-3;
  }

(* Total backoff time charged for [retries] successive shuffle retry
   attempts: base * (2^0 + 2^1 + ...), each term capped. *)
let retry_backoff t ~retries =
  let rec go i acc =
    if i >= retries then acc
    else
      let d =
        Float.min t.retry_backoff_cap_s (t.retry_backoff_base_s *. (2.0 ** float_of_int i))
      in
      go (i + 1) (acc +. d)
  in
  go 0 0.0

(* Deterministic per-(task, superstep) work multiplier modelling JVM
   jitter (GC pauses, JIT warmup): uniform in [1, 1 + gc_jitter]. Task
   heterogeneity is what makes finer-grained scheduling pack better —
   the granularity effect the paper reports for CC and TR. *)
let jittered t ~step work =
  let out = Array.make (Array.length work) 0.0 in
  for partition = 0 to Array.length work - 1 do
    let u =
      float_of_int (Cutfit_prng.Splitmix64.nth_bits53 ~seed:(step + 7) (partition + 1))
      /. 9007199254740992.0
    in
    out.(partition) <- work.(partition) *. (1.0 +. (t.gc_jitter *. u))
  done;
  out

let makespan ~work ~cores =
  if cores <= 0 then invalid_arg "Cost_model.makespan: cores <= 0";
  let total = Array.fold_left ( +. ) 0.0 work in
  let biggest = Array.fold_left max 0.0 work in
  Float.max biggest (total /. float_of_int cores)
