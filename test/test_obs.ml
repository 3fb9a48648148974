(* Tests for the observability layer: metric registry semantics, the
   JSON codec round-trip, the pinned JSONL rendering, and — the
   load-bearing property — exact reconciliation between the
   per-superstep event stream and the engine's own Trace.t aggregates. *)

module Graph = Cutfit_graph.Graph
module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Pregel = Cutfit_bsp.Pregel
module Gas = Cutfit_bsp.Gas
module Trace = Cutfit_bsp.Trace
module Json = Cutfit_obs.Json
module Metric = Cutfit_obs.Metric
module Event = Cutfit_obs.Event
module Sink = Cutfit_obs.Sink
module Telemetry = Cutfit_obs.Telemetry

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0)) (* exact equality, by design *)

(* --- metric registry --- *)

let metric reg name = List.assoc name (Metric.snapshot reg)

let test_metric_cells () =
  let reg = Metric.create_registry () in
  let c = Metric.counter reg "msgs" in
  Metric.incr c;
  Metric.add c 41;
  checkf "counter" 42.0 (metric reg "msgs");
  Metric.incr (Metric.counter reg "msgs");
  checkf "same name, same cell" 43.0 (metric reg "msgs");
  let g = Metric.gauge reg "bytes" in
  Metric.set g 7.5;
  Metric.set g 2.5;
  checkf "gauge keeps last" 2.5 (metric reg "bytes");
  let t = Metric.timer reg "span" in
  Metric.record t 1.0;
  Metric.record t 0.25;
  checkf "timer total" 1.25 (metric reg "span");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metric.gauge: \"msgs\" is registered as another kind") (fun () ->
      ignore (Metric.gauge reg "msgs"));
  let names = List.map fst (Metric.snapshot reg) in
  Alcotest.(check (list string)) "snapshot sorted" [ "bytes"; "msgs"; "span" ] names

let test_metric_time_runs_thunk () =
  let reg = Metric.create_registry () in
  let t = Metric.timer reg "wall" in
  let x = Metric.time t (fun () -> 1 + 1) in
  checki "thunk result" 2 x;
  checkb "nonnegative" true (metric reg "wall" >= 0.0)

(* --- JSON codec --- *)

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "parse error on %s: %s" (Json.to_string j) e

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float 1.7976931348623157e308;
      Json.Float (-4.9e-324);
      Json.Float 3.0;
      Json.String "with \"quotes\", a \\ and a \ttab\n";
      Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ];
      Json.Obj [ ("a", Json.List []); ("b", Json.Obj [ ("c", Json.Bool false) ]) ];
    ]
  in
  List.iter (fun j -> checkb (Json.to_string j) true (roundtrip j = j)) samples;
  (* Whole floats keep their floatness across the wire. *)
  checkb "3.0 stays Float" true (roundtrip (Json.Float 3.0) = Json.Float 3.0);
  checkb "3 stays Int" true (roundtrip (Json.Int 3) = Json.Int 3);
  (* Non-finite floats degrade to null, which reads back as nan. *)
  (match Json.to_float (roundtrip (Json.Float nan)) with
  | Some f -> checkb "nan -> null -> nan" true (Float.is_nan f)
  | None -> Alcotest.fail "nan did not read back as a float");
  match Json.of_string "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "trailing input accepted"
  | Error _ -> ()

(* Every finite double, including -0.0 and subnormals, reads back with
   the same bits: printing up to 17 significant digits is what lets a
   JSONL trace be re-read exactly. *)
let prop_json_float_bits =
  Test_util.qtest "json float bits round-trip" ~print:Int64.to_string
    QCheck2.Gen.(
      oneof
        [
          int64;
          (* -0.0, the smallest and largest subnormals, a negative subnormal *)
          oneofl [ Int64.min_int; 1L; 0x000FFFFFFFFFFFFFL; 0x800FFFFFFFFFFFFFL ];
        ])
    (fun bits ->
      let f = Int64.float_of_bits bits in
      (not (Float.is_finite f))
      ||
      match Json.to_float (roundtrip (Json.Float f)) with
      | Some f' -> Int64.equal (Int64.bits_of_float f') bits
      | None -> false)

(* Printing formats %.17g only when %.12g does not re-parse exactly;
   the bytes must equal the old rule, which formatted both every time. *)
let prop_json_float_format =
  Test_util.qtest ~count:2000 "json float printing = both-formats rule" ~print:Int64.to_string
    QCheck2.Gen.(
      oneof
        [
          int64;
          oneofl [ Int64.min_int; 0L; 1L; 0x000FFFFFFFFFFFFFL; 0x800FFFFFFFFFFFFFL ];
          (* integral values, and short decimals that %.12g prints exactly *)
          map (fun i -> Int64.bits_of_float (float_of_int i)) int;
          map (fun i -> Int64.bits_of_float (float_of_int i /. 1000.)) (int_range (-1_000_000) 1_000_000);
        ])
    (fun bits ->
      let f = Int64.float_of_bits bits in
      let old_rule =
        if not (Float.is_finite f) then "null"
        else
          let exact = Printf.sprintf "%.17g" f in
          let shorter = Printf.sprintf "%.12g" f in
          let s = if float_of_string shorter = f then shorter else exact in
          if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s
          else s ^ ".0"
      in
      String.equal (Json.to_string (Json.Float f)) old_rule)

let test_event_to_line_pinned () =
  let ss =
    Event.Superstep
      ( {
          Event.step = 3;
          active_edges = 90;
          messages = 123;
          shuffle_groups = 100;
          remote_shuffles = 60;
          updated_vertices = 17;
          broadcast_replicas = 55;
          remote_broadcasts = 21;
          wire_bytes = 123456.789;
          compute_s = 0.3;
          network_s = 0.01;
          overhead_s = 0.05;
          time_s = 0.35;
        },
        {
          Event.executor_busy_s = [| 0.1; 0.30000000000000004 |];
          barrier_wait_s = [| 0.2; 0.0 |];
          max_task_s = 0.025;
          min_task_s = 1e-9;
        } )
  in
  let re =
    Event.Run_end
      {
        Event.label = "pregel";
        outcome = "completed";
        supersteps = 9;
        total_s = 1.25;
        load_s = 0.125;
        checkpoint_s = 0.0;
        recovery_s = 0.0;
        total_messages = 1234;
        total_remote = 567;
        total_wire_bytes = 89012.5;
      }
  in
  Alcotest.(check (list string))
    "JSONL lines"
    [
      {|{"type":"run_start","label":"PR/DBH"}|};
      {|{"type":"superstep","step":3,"active_vertices":17,"active_edges":90,"messages":123,"local_shuffles":40,"remote_shuffles":60,"broadcast_replicas":55,"remote_broadcasts":21,"wire_bytes":123456.789,"executor_busy_s":[0.1,0.30000000000000004],"barrier_wait_s":[0.2,0.0],"max_task_s":0.025,"min_task_s":1e-09,"compute_s":0.3,"network_s":0.01,"overhead_s":0.05,"time_s":0.35}|};
      {|{"type":"run_end","label":"pregel","outcome":"completed","supersteps":9,"total_s":1.25,"load_s":0.125,"checkpoint_s":0.0,"recovery_s":0.0,"total_messages":1234,"total_remote":567,"total_wire_bytes":89012.5}|};
    ]
    (List.map Event.to_line [ Event.Run_start { label = "PR/DBH" }; ss; re ])

let test_skew () =
  let base =
    { Event.executor_busy_s = [||]; barrier_wait_s = [||]; max_task_s = 0.0; min_task_s = 0.0 }
  in
  checkf "idle superstep skews 1.0" 1.0 (Event.skew base);
  checkf "balanced" 2.0 (Event.skew { base with Event.max_task_s = 0.4; min_task_s = 0.2 });
  checkb "idle minimum -> infinite spread" true
    (Event.skew { base with Event.max_task_s = 0.4 } = infinity)

(* --- telemetry handle and sinks --- *)

let test_ring_capacity () =
  let sink, contents = Sink.ring ~capacity:3 () in
  let t = Telemetry.create ~sinks:[ sink ] () in
  for i = 1 to 5 do
    Telemetry.emit t (Event.Run_start { label = string_of_int i })
  done;
  let labels =
    List.filter_map
      (function Event.Run_start { label } -> Some label | _ -> None)
      (contents ())
  in
  Alcotest.(check (list string)) "last three, in order" [ "3"; "4"; "5" ] labels;
  checki "emitted counts all five" 5 (Telemetry.events_emitted t);
  Telemetry.close t

let test_close_is_idempotent_and_drops () =
  let sink, contents = Sink.ring () in
  let t = Telemetry.create ~sinks:[ sink ] () in
  Telemetry.emit t (Event.Run_start { label = "a" });
  Telemetry.close t;
  Telemetry.close t;
  Telemetry.emit t (Event.Run_start { label = "after-close" });
  checki "post-close emit dropped" 1 (List.length (contents ()));
  checki "emitted count unchanged" 1 (Telemetry.events_emitted t)

let test_console_sink_renders () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let t = Telemetry.create ~sinks:[ Sink.console ppf ] () in
  Telemetry.emit t (Event.Run_start { label = "PR/DBH" });
  Telemetry.close t;
  Format.pp_print_flush ppf ();
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions the run label" true (contains (Buffer.contents buf) "PR/DBH")

(* --- reconciliation with Trace.t --- *)

(* The engine under observation: min-label propagation, as in
   test_bsp.ml, on a generated graph big enough to produce remote
   traffic on every superstep. *)
let min_label_program =
  {
    Test_util.init = (fun v -> v);
    initial_msg = max_int;
    vprog = (fun _ l m -> min l m);
    send =
      (fun ~src:_ ~dst:_ ~src_attr ~dst_attr ~emit ->
        if src_attr < dst_attr then emit Pregel.To_dst src_attr
        else if dst_attr < src_attr then emit Pregel.To_src dst_attr);
    merge = min;
    state_bytes = 8;
    msg_bytes = 8;
  }

let observed_run () =
  let g = Test_util.random_graph ~seed:55L ~n:200 ~m:1500 in
  let cluster = Test_util.tiny_cluster () in
  let np = cluster.Cluster.num_partitions in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g in
  let pg = Pgraph.build g ~num_partitions:np a in
  let path = Filename.temp_file "cutfit_obs" ".jsonl" in
  let ring, contents = Sink.ring () in
  let t = Telemetry.create ~sinks:[ ring; Sink.jsonl path ] () in
  let r = Test_util.run_boxed ~telemetry:t ~cluster pg min_label_program in
  (match Gas.run ~telemetry:t ~cluster pg
           {
             Gas.init = (fun v -> v);
             direction = Gas.Gather_both;
             gather =
               (fun ~src ~dst ~src_attr ~dst_attr ~target ->
                 if target = dst then Some src_attr
                 else if target = src then Some dst_attr
                 else None);
             sum = min;
             apply =
               (fun _ label total ->
                 match total with Some x -> (min label x, false) | None -> (label, false));
             state_bytes = 8;
             gather_bytes = 8;
           }
   with
  | _ -> ());
  Telemetry.close t;
  (r.Test_util.trace, contents (), t, path)

let supersteps_of events =
  List.filter_map (function Event.Superstep (s, p) -> Some (s, p) | _ -> None) events

let run_ends_of events =
  List.filter_map (function Event.Run_end e -> Some e | _ -> None) events

(* Events for the pregel run only: everything before the second engine's
   records. The stream is [pregel supersteps; pregel Run_end; gas ...]. *)
let split_first_run events =
  let rec take acc = function
    | [] -> (List.rev acc, [])
    | Event.Run_end _ :: rest -> (List.rev acc, rest)
    | e :: rest -> take (e :: acc) rest
  in
  take [] events

(* What the event stream alone carries: each stage's executor profile.
   The counters are the trace's own records (see the next test). *)
let test_event_stream_reconciles_with_trace () =
  let trace, events, _t, path = observed_run () in
  Sys.remove path;
  let first_run, _rest = split_first_run events in
  let ss = supersteps_of first_run in
  checki "one event per trace superstep" (List.length trace.Trace.supersteps) (List.length ss);
  List.iter
    (fun ((s : Event.superstep), (p : Event.executor_profile)) ->
      (* Barrier accounting: waits are measured against the slowest
         executor, so busy + wait is constant across executors and
         equals the stage's compute. *)
      let slowest = Array.fold_left Float.max 0.0 p.executor_busy_s in
      checkf "slowest executor is the compute" s.compute_s slowest;
      Array.iteri
        (fun e wait -> checkf "busy + wait = slowest" slowest (p.executor_busy_s.(e) +. wait))
        p.barrier_wait_s;
      checkb "max task bounds min" true (p.max_task_s >= p.min_task_s))
    ss

(* The pricer stores each record once: the payload every [Superstep],
   [Recovery], [Speculative_launch]/[_win] and [Reshuffle] event carries
   is the trace's own value, in the trace's order. The schedule below
   fires one crash (a rollback recovery), a straggler whose clone wins,
   and one leave and one join (two reshuffles). *)
let test_events_share_trace_records () =
  let g = Cutfit.Datasets.generate (Cutfit.Datasets.find "roadnet_pa") in
  let ring, contents = Sink.ring () in
  let t = Telemetry.create ~sinks:[ ring ] () in
  let p =
    Cutfit.Pipeline.prepare
      ~what_if:
        {
          Cutfit.Pricer.static with
          checkpoint_every = Some 2;
          faults = Some (Cutfit.Faults.config ~seed:42 "crash@2,straggler@3-4:x20");
          speculation = Some (Cutfit.Speculation.config ~seed:42 ());
          elastic = Some (Cutfit.Elastic.config ~seed:42 "leave@4-1,join@5+1");
        }
      ~telemetry:t ~algorithm:Cutfit.Advisor.Pagerank g
  in
  let _ranks, trace = Cutfit.Pipeline.pagerank p in
  Telemetry.close t;
  let events = contents () in
  let same what records payloads =
    checkb (what ^ ": some recorded") true (records <> []);
    checki (what ^ ": one event per record") (List.length records) (List.length payloads);
    List.iter2 (fun r e -> checkb (what ^ ": same value") true (r == e)) records payloads
  in
  same "superstep" trace.Trace.supersteps
    (List.filter_map (function Event.Superstep (s, _) -> Some s | _ -> None) events);
  same "recovery" trace.Trace.recoveries
    (List.filter_map (function Event.Recovery r -> Some r | _ -> None) events);
  same "speculative_launch" trace.Trace.speculations
    (List.filter_map (function Event.Speculative_launch s -> Some s | _ -> None) events);
  same "speculative_win"
    (List.filter (fun (s : Trace.speculation) -> s.won) trace.Trace.speculations)
    (List.filter_map (function Event.Speculative_win s -> Some s | _ -> None) events);
  same "reshuffle" trace.Trace.reshuffles
    (List.filter_map (function Event.Reshuffle r -> Some r | _ -> None) events);
  (* The sums the run-end event and the checkpoint events carry are the
     trace's own folds. *)
  checkf "checkpoint events sum to checkpoint_s" trace.Trace.checkpoint_s
    (List.fold_left
       (fun acc -> function Event.Checkpoint c -> acc +. c.Event.write_s | _ -> acc)
       0.0 events);
  match run_ends_of events with
  | [ e ] ->
      checkf "run_end load_s" trace.Trace.load_s e.Event.load_s;
      checkf "run_end checkpoint_s" trace.Trace.checkpoint_s e.Event.checkpoint_s;
      checkf "run_end recovery_s" (Trace.recovery_s trace) e.Event.recovery_s;
      checkb "recovery time charged" true (e.Event.recovery_s > 0.0)
  | ends -> Alcotest.failf "expected 1 run end, got %d" (List.length ends)

let test_run_end_matches_trace () =
  let trace, events, t, path = observed_run () in
  Sys.remove path;
  (match run_ends_of events with
  | [ pregel_end; gas_end ] ->
      Alcotest.(check string) "label" "pregel" pregel_end.Event.label;
      Alcotest.(check string) "outcome" "completed" pregel_end.Event.outcome;
      checki "supersteps excludes build stage"
        (List.length trace.Trace.supersteps - 1)
        pregel_end.Event.supersteps;
      checkf "total_s" trace.Trace.total_s pregel_end.Event.total_s;
      checki "messages" (Trace.total_messages trace) pregel_end.Event.total_messages;
      checki "remote" (Trace.total_remote_messages trace) pregel_end.Event.total_remote;
      checkf "wire" (Trace.total_wire_bytes trace) pregel_end.Event.total_wire_bytes;
      Alcotest.(check string) "gas label" "gas" gas_end.Event.label
  | ends -> Alcotest.failf "expected 2 run ends, got %d" (List.length ends));
  (* Registry aggregates accumulated across both runs. *)
  let reg = Telemetry.metrics t in
  checkf "bsp.runs" 2.0 (metric reg "bsp.runs");
  checkb "bsp.messages counted" true
    (metric reg "bsp.messages" >= float_of_int (Trace.total_messages trace));
  checkb "simulated_s recorded" true (metric reg "bsp.simulated_s" > 0.0)

let test_jsonl_file_reconciles () =
  let trace, events, t, path = observed_run () in
  let lines = ref [] in
  let ic = open_in path in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Sys.remove path;
  checki "one line per event" (Telemetry.events_emitted t) (List.length lines);
  Alcotest.(check (list string))
    "file and ring agree, byte for byte" (List.map Event.to_line events) lines;
  (* Re-read the pregel run's supersteps from the file as plain JSON. *)
  let objs =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok j -> j
        | Error msg -> Alcotest.failf "bad JSONL line %s: %s" line msg)
      lines
  in
  let kind j = Option.bind (Json.member "type" j) Json.to_string_opt in
  let rec first_run = function
    | [] -> []
    | j :: rest -> if kind j = Some "run_end" then [] else j :: first_run rest
  in
  let ss = List.filter (fun j -> kind j = Some "superstep") (first_run objs) in
  let num conv name j = Option.get (Option.bind (Json.member name j) conv) in
  checki "remote messages from the file"
    (Trace.total_remote_messages trace)
    (List.fold_left
       (fun acc j ->
         acc + num Json.to_int "remote_shuffles" j + num Json.to_int "remote_broadcasts" j)
       0 ss);
  checkf "wire bytes from the file, bit-exact"
    (Trace.total_wire_bytes trace)
    (List.fold_left (fun acc j -> acc +. num Json.to_float "wire_bytes" j) 0.0 ss)

let test_zero_superstep_run () =
  (* An edgeless graph: no messages ever flow, so the run ends after the
     build stage, superstep 0 and one empty superstep — every counter in
     the stream is zero and reconciliation holds trivially. *)
  let g = Test_util.graph_of_edges ~n:8 [] in
  let cluster = Test_util.tiny_cluster () in
  let np = cluster.Cluster.num_partitions in
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g in
  let pg = Pgraph.build g ~num_partitions:np a in
  let ring, contents = Sink.ring () in
  let t = Telemetry.create ~sinks:[ ring ] () in
  let r = Test_util.run_boxed ~telemetry:t ~cluster pg min_label_program in
  Telemetry.close t;
  let trace = r.Test_util.trace in
  let ss = List.map fst (supersteps_of (contents ())) in
  checki "events match trace length" (List.length trace.Trace.supersteps) (List.length ss);
  checki "no messages" 0 (Trace.total_messages trace);
  checki "no remote messages" (Trace.total_remote_messages trace)
    (List.fold_left (fun acc s -> acc + s.Event.remote_shuffles + s.Event.remote_broadcasts) 0 ss);
  List.iter
    (fun (s : Event.superstep) ->
      if s.Event.step > 0 then checki "late steps idle" 0 s.Event.messages)
    ss;
  match run_ends_of (contents ()) with
  | [ e ] -> Alcotest.(check string) "still completes" "completed" e.Event.outcome
  | _ -> Alcotest.fail "expected exactly one run end"

let suite =
  [
    Alcotest.test_case "metric cells" `Quick test_metric_cells;
    Alcotest.test_case "metric time" `Quick test_metric_time_runs_thunk;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    prop_json_float_bits;
    Alcotest.test_case "event to_line pinned" `Quick test_event_to_line_pinned;
    Alcotest.test_case "skew" `Quick test_skew;
    Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
    Alcotest.test_case "close idempotent" `Quick test_close_is_idempotent_and_drops;
    Alcotest.test_case "console sink" `Quick test_console_sink_renders;
    Alcotest.test_case "events reconcile with trace" `Quick test_event_stream_reconciles_with_trace;
    Alcotest.test_case "events share trace records" `Quick test_events_share_trace_records;
    Alcotest.test_case "run end matches trace" `Quick test_run_end_matches_trace;
    Alcotest.test_case "jsonl file reconciles" `Quick test_jsonl_file_reconciles;
    Alcotest.test_case "zero-message run" `Quick test_zero_superstep_run;
    prop_json_float_format;
  ]
