module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event

let suite = "faults"

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Canonical attribute digests: floats by their IEEE-754 bits, so the
   equivalence comparison is bit-exact, never approximate. *)
let float_attrs_digest attrs =
  let b = Buffer.create (Array.length attrs * 17) in
  Array.iter (fun f -> Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float f))) attrs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let int_attrs_digest attrs =
  let b = Buffer.create (Array.length attrs * 8) in
  Array.iter (fun i -> Buffer.add_string b (string_of_int i ^ ";")) attrs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let equivalence ?(label = "run") ~baseline ~faulty ~baseline_attrs ~faulty_attrs () =
  let acc = ref [] in
  let bad rule fmt =
    Format.kasprintf (fun d -> acc := Violation.v ~suite ~rule "%s" d :: !acc) fmt
  in
  (* The baseline must be free of *injected* faults, or the comparison
     proves nothing. Elastic spot preemptions are the one tolerated
     exception: both runs share the scale-event timeline by
     construction, and a preemption is charged through the recovery
     machinery (kind = "preempt", [faults_injected] incremented) even
     on the fault-free side — so the baseline may carry exactly its
     preempt-attributable records and nothing more. *)
  let preempts, injected =
    List.partition
      (fun (r : Trace.recovery) -> String.equal r.Event.kind "preempt")
      baseline.Trace.recoveries
  in
  if
    baseline.Trace.faults_injected <> List.length preempts
    || injected <> []
    || baseline.Trace.speculations <> []
  then
    bad "baseline-faulted"
      "%s: baseline run carries %d faults / %d non-preempt recoveries / %d speculations beyond \
       its %d scale-event preemptions"
      label baseline.Trace.faults_injected (List.length injected)
      (List.length baseline.Trace.speculations)
      (List.length preempts);
  let faulty_valid = Trace.completed faulty in
  (* The core invariant: faults perturb time accounting only. A faulty
     run that still completed must have converged to bit-identical
     vertex values. Aborted or OOM runs carry no result to compare. *)
  if faulty_valid && not (String.equal baseline_attrs faulty_attrs) then
    bad "value-divergence" "%s: faulty run's vertex values diverge (baseline %s, faulty %s)" label
      baseline_attrs faulty_attrs;
  (* The communication structure is fault-invariant too: a faulty run
     executes the very same supersteps with the same counters and wire
     payloads — only the time columns and the recovery records may
     differ. On an aborted run the executed prefix must still match. *)
  let rec zip_prefix bs fs =
    match (bs, fs) with
    | _, [] -> ()
    | [], _ :: _ ->
        bad "superstep-mismatch" "%s: faulty run has more supersteps than the baseline" label
    | (b : Trace.superstep) :: bs, (f : Trace.superstep) :: fs ->
        let step = f.Event.step in
        if b.Event.step <> step then
          bad "superstep-mismatch" "%s: baseline step %d vs faulty step %d" label b.Event.step step
        else begin
          if
            b.Event.active_edges <> f.Event.active_edges
            || b.Event.messages <> f.Event.messages
            || b.Event.shuffle_groups <> f.Event.shuffle_groups
            || b.Event.remote_shuffles <> f.Event.remote_shuffles
            || b.Event.updated_vertices <> f.Event.updated_vertices
            || b.Event.broadcast_replicas <> f.Event.broadcast_replicas
            || b.Event.remote_broadcasts <> f.Event.remote_broadcasts
          then bad "counter-divergence" "%s: step %d counters diverge under faults" label step;
          if not (feq b.Event.wire_bytes f.Event.wire_bytes) then
            bad "wire-divergence" "%s: step %d wire bytes %.17g vs %.17g under faults" label step
              b.Event.wire_bytes f.Event.wire_bytes
        end;
        zip_prefix bs fs
  in
  zip_prefix baseline.Trace.supersteps faulty.Trace.supersteps;
  if faulty_valid && List.length faulty.Trace.supersteps <> List.length baseline.Trace.supersteps
  then
    bad "superstep-mismatch" "%s: faulty run recorded %d stages, baseline %d" label
      (List.length faulty.Trace.supersteps)
      (List.length baseline.Trace.supersteps);
  (* A faulty run is never cheaper: it pays the baseline's supersteps
     (each possibly stretched) plus checkpoints and recovery. *)
  let sum_steps t =
    List.fold_left (fun a (s : Trace.superstep) -> a +. s.Event.time_s) 0.0 t.Trace.supersteps
  in
  if faulty_valid && sum_steps faulty +. 1e-12 < sum_steps baseline then
    bad "time-regression" "%s: faulty supersteps sum to %.17g < baseline %.17g" label
      (sum_steps faulty) (sum_steps baseline);
  (* Recovery-cost accounting on the faulty trace itself (the full
     conservation suite runs separately via Trace_check.validate). *)
  List.rev !acc
