(* Overload protection and straggler mitigation: speculative superstep
   re-execution (value equivalence, tail-latency effect, determinism),
   admission-control shedding, SLO deadlines, and the circuit breaker's
   open/probe/close lifecycle — all through the real engines, checked
   by the workload sanitizer's conservation laws. *)

module Advisor = Cutfit.Advisor
module Pipeline = Cutfit.Pipeline
module Sanitize = Cutfit.Sanitize
module Check = Cutfit.Check
module Faults = Cutfit_bsp.Faults
module Speculation = Cutfit_bsp.Speculation
module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event
module Summary = Cutfit_stats.Summary
module Job = Cutfit_workload.Job
module Cache = Cutfit_workload.Cache
module Engine = Cutfit_workload.Engine
module Workload_check = Cutfit_workload.Workload_check

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_clean what vs = Alcotest.(check int) (what ^ " is clean") 0 (List.length vs)

let mix = Option.get (Job.find_mix "uniform")
let stragglers = Faults.config "straggler@2:x8"
let speculation = Speculation.config ()

(* --- percentiles (satellite: Stats.percentiles) --- *)

let test_percentiles_nearest_rank () =
  (* 1..100 in scrambled order: nearest-rank pX is exactly X. *)
  let a = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  let p = Summary.percentiles a in
  checkb "p50" true (Float.equal p.Summary.p50 50.0);
  checkb "p95" true (Float.equal p.Summary.p95 95.0);
  checkb "p99" true (Float.equal p.Summary.p99 99.0);
  let one = Summary.percentiles [| 3.25 |] in
  checkb "singleton" true
    (Float.equal one.Summary.p50 3.25
    && Float.equal one.Summary.p95 3.25
    && Float.equal one.Summary.p99 3.25);
  (* Nearest rank never interpolates: every answer is a sample. *)
  let b = [| 10.0; 20.0 |] in
  let pb = Summary.percentiles b in
  checkb "p50 of two samples is the first" true (Float.equal pb.Summary.p50 10.0);
  checkb "p99 of two samples is the second" true (Float.equal pb.Summary.p99 20.0);
  match Summary.percentiles [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty array must raise"

(* --- speculation: value equivalence --- *)

let test_speculation_preserves_values () =
  let g = Cutfit.Datasets.generate (Cutfit.Datasets.find "pocek") in
  let run ?speculation () =
    let what_if = { Cutfit.Pricer.static with faults = Some stragglers; speculation } in
    let p = Pipeline.prepare ~what_if ~algorithm:Advisor.Pagerank g in
    Pipeline.pagerank p
  in
  let ranks_plain, trace_plain = run () in
  let ranks_spec, trace_spec = run ~speculation () in
  checkb "speculation fired" true (trace_spec.Trace.speculations <> []);
  checkb "no clones without a config" true (trace_plain.Trace.speculations = []);
  checkb "ranks bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       ranks_plain ranks_spec);
  (* Per-superstep counters and wire bytes are untouched; only the time
     accounting moves. *)
  List.iter2
    (fun (a : Trace.superstep) (b : Trace.superstep) ->
      checki "messages" a.Event.messages b.Event.messages;
      checkb "wire bytes" true (Float.equal a.Event.wire_bytes b.Event.wire_bytes))
    trace_plain.Trace.supersteps trace_spec.Trace.supersteps

let test_speculation_sanitizer_green () =
  let g = Cutfit.Datasets.generate (Cutfit.Datasets.find "pocek") in
  let report =
    Sanitize.check_run ~faults:stragglers ~speculation ~algorithm:Advisor.Pagerank g
  in
  checkb "sanitizer (incl. equivalence suite) passes under speculation" true
    (Sanitize.ok report)

(* --- speculation: tail latency and determinism --- *)

let straggler_workload ?speculation () =
  Engine.run ?speculation ~faults:stragglers ~policy:Engine.Sjf ~seed:7L
    (Job.generate ~seed:7L ~jobs:20 mix)

let test_speculation_lowers_tail () =
  let off = straggler_workload () in
  let on_ = straggler_workload ~speculation () in
  checkb "clones launched" true (Engine.total_speculations on_ > 0);
  match (Engine.latency_percentiles off, Engine.latency_percentiles on_) with
  | Some off_p, Some on_p ->
      checkb
        (Printf.sprintf "speculation lowers p99 (%.2f < %.2f)" on_p.Summary.p99
           off_p.Summary.p99)
        true
        (on_p.Summary.p99 < off_p.Summary.p99);
      checkb "and p95 does not regress" true (on_p.Summary.p95 <= off_p.Summary.p95)
  | _ -> Alcotest.fail "both runs must finish jobs"

let test_speculation_digest_stable () =
  check_clean "speculative straggler workload digest"
    (Workload_check.run_twice ~label:"sjf straggler speculate" (fun () ->
         straggler_workload ~speculation ()))

(* --- admission control --- *)

let test_shed_consumes_no_retry () =
  let run shed_policy =
    Engine.run ~queue_bound:1 ~shed_policy ~seed:3L (Job.generate ~seed:3L ~jobs:16 mix)
  in
  let r = run Engine.Reject in
  checkb "overload sheds" true (Engine.shed_jobs r > 0);
  checki "sheds never consume a retry" 0 r.Engine.retries;
  checki "sheds never invalidate the cache" 0 r.Engine.cache.Cache.invalidations;
  List.iter
    (fun (x : Engine.job_record) ->
      if String.equal x.Engine.outcome "shed" then begin
        checki "shed job launched nothing" 0 x.Engine.attempts;
        checkb "shed job is failed" true (Option.is_some x.Engine.failure);
        checkb "shed job accrued no run time" true
          (Float.equal x.Engine.finish_s x.Engine.start.Event.start_s)
      end)
    r.Engine.records;
  check_clean "shedding report" (Workload_check.report r);
  (* Drop-oldest displaces the longest-waiting queued job instead of the
     incoming one, so the shed set differs while conservation holds. *)
  let d = run Engine.Drop_oldest in
  checkb "drop-oldest sheds too" true (Engine.shed_jobs d > 0);
  let shed_ids (r : Engine.report) =
    List.filter_map
      (fun (x : Engine.job_record) ->
        if String.equal x.Engine.outcome "shed" then Some x.Engine.job.Job.id else None)
      r.Engine.records
  in
  checkb "policies shed different jobs" true (shed_ids r <> shed_ids d);
  check_clean "drop-oldest report" (Workload_check.report d)

(* --- SLO deadlines --- *)

let test_deadline_cancels_cleanly () =
  let r =
    Engine.run ~deadline:(Engine.Absolute 6.0) ~seed:5L (Job.generate ~seed:5L ~jobs:12 mix)
  in
  checkb "deadline fired" true (Engine.deadline_jobs r > 0);
  checki "cancels never consume a retry" 0 r.Engine.retries;
  checki "cancels never invalidate the cache" 0 r.Engine.cache.Cache.invalidations;
  List.iter
    (fun (x : Engine.job_record) ->
      if String.equal x.Engine.outcome "deadline" then begin
        checkb "cancelled job is failed" true (Option.is_some x.Engine.failure);
        match x.Engine.deadline_s with
        | None -> Alcotest.fail "cancelled job must carry its deadline"
        | Some d ->
            checkb "slot freed at the deadline, wasted work truncated there" true
              (x.Engine.finish_s <= d +. 1e-9)
      end)
    r.Engine.records;
  check_clean "deadline report" (Workload_check.report r)

(* --- circuit breaker --- *)

(* A stream hammering one (dataset, strategy) key under a crash-heavy
   random schedule: consecutive aborted attempts must open the breaker
   (k = 2) and the first successful probe after the cooldown must close
   it again. The fault seed is searched deterministically — the first
   seed whose realization produces both transitions — so the assertion
   replays bit-identically. *)
let breaker_report fault_seed =
  let jobs =
    List.init 4 (fun i ->
        {
          Job.id = i;
          arrival_s = float_of_int i *. 0.5;
          tenant = Job.default_tenant;
          algorithm = Advisor.Pagerank;
          dataset = "pocek";
          num_partitions = 64;
        })
  in
  let faults = Faults.config ~seed:fault_seed ~max_failures:0 "rand@0.8" in
  Engine.run ~faults ~max_retries:6 ~breaker_k:2 ~breaker_cooldown_s:1.0
    ~selection:Engine.Heuristic ~seed:11L jobs

let test_breaker_reopens_and_closes () =
  let rec search seed =
    if seed > 60 then Alcotest.fail "no fault seed tripped open + close within 60 draws"
    else begin
      let r = breaker_report seed in
      let opens =
        List.filter_map
          (fun (t : Engine.breaker_trip) ->
            match t.Engine.transition with Engine.Opened b -> Some (t, b) | Engine.Closed _ -> None)
          r.Engine.breaker_trips
      in
      let closes =
        List.filter_map
          (fun (t : Engine.breaker_trip) ->
            match t.Engine.transition with Engine.Closed b -> Some (t, b) | Engine.Opened _ -> None)
          r.Engine.breaker_trips
      in
      if opens <> [] && closes <> [] then (seed, r, opens, closes) else search (seed + 1)
    end
  in
  let seed, r, opens, closes = search 1 in
  let o_trip, o = List.hd opens in
  let c_trip, c = List.hd closes in
  let opened (t : Engine.breaker_trip) =
    match t.Engine.transition with Engine.Opened _ -> true | Engine.Closed _ -> false
  in
  let index p =
    let rec go i = function
      | [] -> -1
      | t :: rest -> if p t then i else go (i + 1) rest
    in
    go 0 r.Engine.breaker_trips
  in
  checkb "open precedes close in decision order" true
    (index opened < index (fun t -> not (opened t)));
  checkb "open carries the tripping streak" true (o.Event.failures >= 2);
  checkb "same key opens and closes" true
    (String.equal o_trip.Engine.dataset c_trip.Engine.dataset
    && String.equal o.Event.strategy c.Event.strategy);
  check_clean "breaker report" (Workload_check.report r);
  (* Replaying the found seed is bit-identical — the search is stable. *)
  check_clean "breaker digest"
    (Workload_check.run_twice ~label:"breaker lifecycle" (fun () -> breaker_report seed))

let suite =
  [
    Alcotest.test_case "percentiles are nearest-rank" `Quick test_percentiles_nearest_rank;
    Alcotest.test_case "speculation preserves values" `Quick test_speculation_preserves_values;
    Alcotest.test_case "sanitizer green under speculation" `Quick
      test_speculation_sanitizer_green;
    Alcotest.test_case "speculation lowers the p99 tail" `Quick test_speculation_lowers_tail;
    Alcotest.test_case "speculative workload digest is stable" `Quick
      test_speculation_digest_stable;
    Alcotest.test_case "shedding consumes no retry" `Quick test_shed_consumes_no_retry;
    Alcotest.test_case "deadline cancels cleanly" `Quick test_deadline_cancels_cleanly;
    Alcotest.test_case "breaker opens then closes on a probe" `Quick
      test_breaker_reopens_and_closes;
  ]
