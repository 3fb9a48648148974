module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event

let suite = "determinism"

(* Canonical byte serialization: ints in decimal, floats as the hex of
   their IEEE-754 bits so every ULP matters. *)
let buf_float b f = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float f))
let buf_int b i = Buffer.add_string b (string_of_int i ^ ";")

let trace_digest (t : Trace.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (s : Trace.superstep) ->
      buf_int b s.Event.step;
      buf_int b s.Event.active_edges;
      buf_int b s.Event.messages;
      buf_int b s.Event.shuffle_groups;
      buf_int b s.Event.remote_shuffles;
      buf_int b s.Event.updated_vertices;
      buf_int b s.Event.broadcast_replicas;
      buf_int b s.Event.remote_broadcasts;
      buf_float b s.Event.wire_bytes;
      buf_float b s.Event.compute_s;
      buf_float b s.Event.network_s;
      buf_float b s.Event.overhead_s;
      buf_float b s.Event.time_s)
    t.Trace.supersteps;
  buf_float b t.Trace.load_s;
  buf_float b t.Trace.checkpoint_s;
  buf_int b t.Trace.checkpoints;
  List.iter
    (fun (r : Trace.recovery) ->
      buf_int b r.Event.step;
      Buffer.add_string b (r.Event.kind ^ ";");
      buf_int b r.Event.executor;
      buf_int b r.Event.replayed_steps;
      buf_int b r.Event.lost_edges;
      buf_int b r.Event.lost_replicas;
      buf_float b r.Event.wire_bytes;
      buf_float b r.Event.recovery_s)
    t.Trace.recoveries;
  buf_float b (Trace.recovery_s t);
  buf_int b t.Trace.faults_injected;
  List.iter
    (fun (s : Trace.speculation) ->
      buf_int b s.Event.step;
      buf_int b s.Event.executor;
      buf_int b s.Event.host;
      buf_int b s.Event.cloned_partitions;
      buf_float b s.Event.original_busy_s;
      buf_float b s.Event.clone_busy_s;
      buf_float b s.Event.compute_s;
      buf_float b s.Event.wire_bytes;
      buf_int b (if s.Event.won then 1 else 0);
      buf_float b s.Event.saved_s)
    t.Trace.speculations;
  buf_float b (Trace.speculation_s t);
  buf_float b t.Trace.total_s;
  Buffer.add_string b (Trace.outcome_name t.Trace.outcome);
  buf_float b t.Trace.peak_executor_bytes;
  buf_float b t.Trace.driver_meta_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The JSONL codec round-trips floats bit-exactly (17 significant
   digits), so the rendered lines are just as canonical. *)
let events_digest events =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Event.to_line events)))

let lines_digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let replay ~label ~first f =
  let second = f () in
  if String.equal first second then []
  else
    [
      Violation.v ~suite ~rule:"divergence" "%s: first run digest %s, second run digest %s" label
        first second;
    ]

let run_twice ~label f = replay ~label ~first:(f ()) f
