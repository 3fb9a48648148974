(* The chaos harness end to end: the scenario spec grammar and its exact
   round-trip, the seeded generator, the fork-isolated runner (pass /
   violate / hang paths), campaign digests under hung scenarios, and the
   delta-debugging shrinker's contract — the shrunk spec still fails the
   same way, re-parses exactly, and is locally minimal. *)

module Scenario = Cutfit_chaos.Scenario
module Cgen = Cutfit_chaos.Gen
module Runner = Cutfit_chaos.Runner
module Shrink = Cutfit_chaos.Shrink
module Campaign = Cutfit_chaos.Campaign
module Spec_error = Cutfit_bsp.Spec_error
module Violation = Cutfit_check.Violation
module Json = Cutfit_obs.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- the spec grammar --- *)

let test_default_spec () =
  checks "default prints as itself" "default" (Scenario.to_spec Scenario.default);
  checkb "default parses back" true (Scenario.equal (Scenario.of_spec "default") Scenario.default);
  (* a spec listing only defaults canonicalizes to "default" *)
  checks "explicit defaults collapse" "default"
    (Scenario.to_spec (Scenario.of_spec "seed=1;algo=PR;jobs=8;mix=uniform"))

let test_of_spec_canonicalizes () =
  (* whatever form the caller types, the embedded DSLs and the key order
     come back canonical *)
  let sc = Scenario.of_spec "faults=straggler@2-2:x4,crash@3:e1;jobs=0;fmode=rollback;maxfail=2" in
  checks "canonical form" "jobs=0;faults=straggler@2,crash@3:e1" (Scenario.to_spec sc);
  checkb "round trips" true (Scenario.equal (Scenario.of_spec (Scenario.to_spec sc)) sc);
  (* the scenario seed reaches the embedded configs *)
  let sc = Scenario.of_spec "seed=9;faults=crash@2;scale=join@3;mut=ins@1" in
  (match sc.Scenario.faults with
  | Some c -> checki "faults keyed on scenario seed" 9 c.Cutfit_bsp.Faults.seed
  | None -> Alcotest.fail "faults missing");
  (match sc.Scenario.elastic with
  | Some c -> checki "scale keyed on scenario seed" 9 c.Cutfit_bsp.Elastic.seed
  | None -> Alcotest.fail "elastic missing");
  match sc.Scenario.mutations with
  | Some c -> checki "mutations keyed on scenario seed" 9 c.Cutfit_dynamic.Mutation.seed
  | None -> Alcotest.fail "mutations missing"

let test_of_spec_rejects () =
  let rejects spec =
    match Scenario.of_spec spec with
    | exception Spec_error.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "spec %S should not parse" spec)
  in
  List.iter rejects
    [
      "bogus" (* no KEY=VALUE shape *);
      "seed=" (* empty value *);
      "seed=1;seed=2" (* duplicate key *);
      "wat=1" (* unknown key *);
      "algo=XX";
      "data=nowhere";
      "cluster=v";
      "mix=nope";
      "jobs=-1";
      "slots=0";
      "policy=lifo";
      "speculate=0.5" (* threshold below 1 *);
      "hetero=2";
      "deadline=z5" (* unknown deadline kind *);
      "deadline=f" (* missing value *);
      "tenants=+";
      "tenants=a:0" (* weight must be positive *);
      "domains=0";
      "maxfail=2" (* maxfail without faults *);
      "fmode=lineage" (* fmode without faults *);
      "mutevery=3" (* mutevery without mut *);
      "mutmode=rebuild" (* mutmode without mut *);
      "faults=meteor@3" (* embedded DSL errors propagate *);
      "scale=join@0";
      "mut=ins@0";
    ]

(* --- the seeded generator: valid, reproducible, exactly round-tripping --- *)

let gen_case_gen =
  QCheck2.Gen.(pair (int_range 1 9999) (int_range 0 63))

let print_gen_case (seed, index) =
  Printf.sprintf "seed=%d index=%d spec=%s" seed index
    (Scenario.to_spec (Cgen.scenario ~seed ~index))

let test_gen_round_trip =
  Test_util.qtest ~count:300 "generated scenarios round-trip exactly" ~print:print_gen_case
    gen_case_gen
    (fun (seed, index) ->
      let sc = Cgen.scenario ~seed ~index in
      let sc' = Scenario.of_spec (Scenario.to_spec sc) in
      Scenario.equal sc' sc && String.equal (Scenario.to_spec sc') (Scenario.to_spec sc))

let test_gen_deterministic () =
  for index = 0 to 31 do
    checks "same (seed, index), same scenario"
      (Scenario.to_spec (Cgen.scenario ~seed:42 ~index))
      (Scenario.to_spec (Cgen.scenario ~seed:42 ~index))
  done;
  (* different seeds explore different points *)
  let specs seed =
    List.init 16 (fun index -> Scenario.to_spec (Cgen.scenario ~seed ~index))
  in
  checkb "campaigns differ across seeds" true (specs 1 <> specs 2)

(* The scenarios [shrink] hands its oracle. An oracle that rejects
   everything sees every shrink move once, in attempt order. *)
let asked ~oracle sc =
  let seen = ref [] in
  let result =
    Shrink.shrink
      ~oracle:(fun c ->
        seen := c :: !seen;
        oracle c)
      sc
  in
  (result, List.rev !seen)

let test_shrink_candidates_round_trip =
  Test_util.qtest ~count:100 "every shrink candidate re-parses exactly" ~print:print_gen_case
    gen_case_gen
    (fun (seed, index) ->
      let sc = Cgen.scenario ~seed ~index in
      List.for_all
        (fun c ->
          (not (Scenario.equal c sc))
          && Scenario.equal (Scenario.of_spec (Scenario.to_spec c)) c)
        (snd (asked ~oracle:(fun _ -> false) sc)))

(* --- the runner --- *)

let test_execute_trivial_clean () =
  (* jobs=0 skips the workload phase; the pipeline sanitizer alone must
     come back clean on the default scenario *)
  checki "trivial scenario is clean" 0
    (List.length (Runner.execute (Scenario.of_spec "jobs=0")))

let test_execute_inject () =
  match Runner.execute (Scenario.of_spec "jobs=0;inject=selftest") with
  | [ v ] ->
      checks "suite" "chaos" v.Violation.suite;
      checks "rule" "selftest" v.Violation.rule
  | vs -> Alcotest.fail (Printf.sprintf "expected exactly the injected violation, got %d" (List.length vs))

let test_fork_runner_outcomes () =
  (match Runner.run ~budget_s:60.0 (Scenario.of_spec "jobs=0") with
  | Runner.Passed -> ()
  | o -> Alcotest.fail ("expected passed, got " ^ Runner.outcome_name o));
  (* violations survive the marshal across the pipe intact *)
  match Runner.run ~budget_s:60.0 (Scenario.of_spec "jobs=0;inject=selftest") with
  | Runner.Violated [ v ] ->
      checks "suite crosses the pipe" "chaos" v.Violation.suite;
      checks "rule crosses the pipe" "selftest" v.Violation.rule
  | o -> Alcotest.fail ("expected the injected violation, got " ^ Runner.outcome_name o)

(* A budget that is not a finite positive number of seconds is refused
   before any child is forked: NaN would reach [Unix.select] as a
   timeout, and infinity would switch off the hang guard. *)
let test_runner_rejects_budgets () =
  List.iter
    (fun budget_s ->
      match Runner.run ~budget_s (Scenario.of_spec "jobs=0") with
      | exception Invalid_argument _ -> ()
      | o -> Alcotest.failf "budget %g ran to %s" budget_s (Runner.outcome_name o))
    [ Float.nan; Float.infinity; 0.0; -1.0 ]

(* --- timeouts and campaign digests --- *)

let test_hung_campaign_digest () =
  (* a 20ms budget is below any scenario's floor: every scenario must be
     killed, reported hung, and the campaign must carry on to the end *)
  let run () = Campaign.run ~budget_s:0.02 ~shrink:false ~seed:7 ~count:3 () in
  let c1 = run () in
  checki "campaign completes past hung scenarios" 3 (List.length c1.Campaign.entries);
  checki "every scenario hung" 3 (List.length (Campaign.hung c1));
  checki "hung scenarios are not failures" 0 (List.length (Campaign.failures c1));
  List.iter
    (fun e ->
      match e.Campaign.outcome with
      | Runner.Hung -> ()
      | o -> Alcotest.fail ("expected hung, got " ^ Runner.outcome_name o))
    c1.Campaign.entries;
  (* the digest ignores wall-clock, so the rerun matches bit for bit *)
  let c2 = run () in
  checks "run-twice campaign digest matches" (Campaign.digest c1) (Campaign.digest c2);
  (* and a different seed walks a different campaign *)
  let c3 = Campaign.run ~budget_s:0.02 ~shrink:false ~seed:8 ~count:3 () in
  checkb "digest is seed-sensitive" true (Campaign.digest c1 <> Campaign.digest c3)

(* --- the shrinker --- *)

(* Synthetic oracle: "fails" iff the injected rule is present AND the
   fault schedule still contains a crash. The shrinker must strip every
   other dimension, keep exactly those two, and land on a fixpoint that
   re-parses exactly and is locally minimal. *)
let test_shrink_synthetic () =
  let sc =
    Scenario.of_spec
      (String.concat ";"
         [
           "seed=5";
           "algo=TR";
           "data=youtube";
           "cluster=ii";
           "jobs=9";
           "mix=churn";
           "slots=3";
           "policy=sjf";
           "faults=crash@2,straggler@1-3,rand@0.1";
           "maxfail=3";
           "fmode=lineage";
           "ckpt=3";
           "speculate=2";
           "scale=join@3+2,preempt@5:r2";
           "hetero=1";
           "mut=ins@1-2:r16,del@2";
           "mutevery=2";
           "mutmode=rebuild";
           "qbound=3";
           "shed=drop-oldest";
           "deadline=f4";
           "breaker=2";
           "cooldown=30";
           "backpressure=2";
           "tenants=acme:2+beta";
           "fairness=1";
           "quota=3";
           "domains=1+2";
           "inject=shrinkme";
         ])
  in
  let has_crash s =
    match s.Scenario.faults with
    | None -> false
    | Some c ->
        List.exists
          (function Cutfit_bsp.Faults.Crash _ -> true | _ -> false)
          c.Cutfit_bsp.Faults.items
  in
  let oracle s = (match s.Scenario.inject with Some _ -> true | None -> false) && has_crash s in
  let shrunk = Shrink.shrink ~oracle sc in
  checkb "shrunk still fails" true (oracle shrunk);
  checkb "shrunk re-parses exactly" true
    (Scenario.equal (Scenario.of_spec (Scenario.to_spec shrunk)) shrunk);
  (* every move from the result, single-event removals included, clears
     the failure, so shrinking again stops where it is *)
  let again, moves = asked ~oracle shrunk in
  checkb "locally minimal: every single-event removal clears the failure" true
    (moves <> [] && Scenario.equal again shrunk && List.for_all (fun c -> not (oracle c)) moves);
  (* everything the oracle does not need is gone *)
  checks "minimal spec" "seed=5;jobs=0;faults=crash@2;inject=shrinkme" (Scenario.to_spec shrunk)

(* End to end through the real runner: an injected violation classifies,
   the execute-based oracle preserves the class, and the repro artifact
   carries the shrunk spec. *)
let test_shrink_real_inject () =
  let sc = Scenario.of_spec "jobs=0;ckpt=2;hetero=1;inject=selftest" in
  let outcome_of s =
    match Runner.execute s with [] -> Runner.Passed | vs -> Runner.Violated vs
  in
  let cls =
    match Shrink.classify (outcome_of sc) with
    | Some c -> c
    | None -> Alcotest.fail "injected violation did not classify"
  in
  checks "class name" "chaos/selftest" (Shrink.class_name cls);
  let oracle s =
    match Shrink.classify (outcome_of s) with
    | Some c -> String.equal (Shrink.class_name c) (Shrink.class_name cls)
    | None -> false
  in
  let shrunk = Shrink.shrink ~oracle sc in
  checks "shrunk to the injection alone" "jobs=0;inject=selftest" (Scenario.to_spec shrunk);
  (* the campaign entry surfaces the shrunk spec as the repro *)
  let entry =
    {
      Campaign.index = 0;
      scenario = sc;
      outcome = outcome_of sc;
      shrunk = Some shrunk;
      duration_s = 0.0;
    }
  in
  checks "repro command is copy-pasteable and prefers the shrunk spec" "cutfit chaos --repro 'jobs=0;inject=selftest'"
    (Campaign.repro_command entry);
  let artifact = Json.to_string (Campaign.artifact_json entry) in
  checkb "artifact names the failure class" true (contains artifact "chaos/selftest");
  checkb "artifact carries the shrunk spec" true (contains artifact "shrunk_spec")

(* Regression: the seed-1 campaign's first real find (scenarios 27 and
   29, shrunk). A spot preemption is charged through the Faults recovery
   machinery even on a fault-free run, so with speculation arming the
   faults suite, its baseline — which correctly shares the scale-event
   timeline — used to trip the pre-elasticity "baseline-faulted"
   precondition. The check now tolerates exactly the baseline's
   preempt-attributable records. *)
let test_preempt_speculation_regression () =
  List.iter
    (fun spec ->
      match Runner.execute (Scenario.of_spec spec) with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: %d violation(s), first %s/%s" spec (List.length vs)
            (List.hd vs).Violation.suite (List.hd vs).Violation.rule)
    [
      "seed=387717;jobs=0;speculate=3;scale=preempt@7";
      "seed=410963;jobs=0;speculate=1.5;scale=preempt@5";
    ]

(* Regression: the seed-1 bench campaign's workload find (shrunk). A
   mutation batch refreshing a cached partitioning delays the launching
   job's start past its own SLO deadline; the overdue-truncation path
   then produced a negative partition cost on a cache hit. The engine
   now cancels such a job cull-style before it runs. *)
let test_mutation_deadline_regression () =
  match
    Runner.execute
      (Scenario.of_spec
         "seed=466798;jobs=7;slots=1;scale=preempt@10;mut=del@2:r1;mutevery=3;deadline=a30;tenants=acme+beta")
  with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d violation(s), first %s/%s" (List.length vs) (List.hd vs).Violation.suite
        (List.hd vs).Violation.rule

(* Regression: the seed-1 200-scenario campaign's find (10 scenarios,
   all SSSP + checkpointing, shrunk). Checkpointing truncates the
   driver's lineage metadata, so a checkpointed SSSP run outlives the
   driver-memory limit that aborts the un-checkpointed one — but the
   faults-suite baseline dropped [checkpoint_every], comparing a
   completed 132-superstep run against a 94-superstep OOM abort.
   Checkpointing is run configuration, not a fault; the baseline now
   keeps it. The third scenario is the dual for the elastic suite: its
   static baseline removes only the scale events, so it keeps the
   checkpoint cadence (without it this SSSP run OOM-aborts at superstep
   94 while the elastic run completes 132 stages) and the fault
   schedule. A dropped fault schedule would pass unseen there: faults
   move only time, which the elastic suite does not compare. *)
let test_checkpoint_baseline_regression () =
  List.iter
    (fun spec ->
      match Runner.execute (Scenario.of_spec spec) with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: %d violation(s), first %s/%s" spec (List.length vs)
            (List.hd vs).Violation.suite (List.hd vs).Violation.rule)
    [
      "seed=83958;algo=SSSP;jobs=0;ckpt=4;speculate=3";
      "seed=887570;algo=SSSP;jobs=0;faults=net@1;ckpt=1";
      "seed=83958;algo=SSSP;jobs=0;faults=crash@6;ckpt=4;scale=join@4";
    ]

(* Regression: the seed-1 bench campaign's engines find (shrunk). SSSP
   on a road network under the memory-constrained cluster aborts with a
   modeled OOM — a deliberate paper feature — so the boxed oracle used
   to hand the equivalence check partial vertex values that no correct
   kernel could match. The oracle now runs memory-unconstrained.

   MUST STAY LAST in the suite: domains=2 makes Runner.execute spawn
   domains in this process, and OCaml 5.1 permanently forbids fork once
   any domain has been created — the fork-based runner and campaign
   tests above would break if this ran before them. *)
let test_oom_oracle_regression () =
  match Runner.execute (Scenario.of_spec "seed=54187;algo=SSSP;jobs=0;domains=2") with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d violation(s), first %s/%s" (List.length vs) (List.hd vs).Violation.suite
        (List.hd vs).Violation.rule

let test_classify () =
  checkb "passed has no class" true (Shrink.classify Runner.Passed = None);
  checkb "hung has no class" true (Shrink.classify Runner.Hung = None);
  let v = Violation.v ~suite:"s" ~rule:"r" "detail" in
  (match Shrink.classify (Runner.Violated [ v ]) with
  | Some (Shrink.Violation_class ("s", "r")) -> ()
  | _ -> Alcotest.fail "violation class mismatch");
  match Shrink.classify (Runner.Crashed "boom\nlong trace") with
  | Some (Shrink.Crash_class "boom") -> ()
  | _ -> Alcotest.fail "crash class must keep only the message head"

let suite =
  [
    Alcotest.test_case "default spec round-trips" `Quick test_default_spec;
    Alcotest.test_case "of_spec canonicalizes and seeds embedded DSLs" `Quick
      test_of_spec_canonicalizes;
    Alcotest.test_case "of_spec rejects malformed input" `Quick test_of_spec_rejects;
    test_gen_round_trip;
    Alcotest.test_case "generator is a pure function of (seed, index)" `Quick
      test_gen_deterministic;
    test_shrink_candidates_round_trip;
    Alcotest.test_case "execute: trivial scenario is clean" `Quick test_execute_trivial_clean;
    Alcotest.test_case "execute: inject fabricates one violation" `Quick test_execute_inject;
    Alcotest.test_case "fork runner: pass and violation outcomes" `Quick test_fork_runner_outcomes;
    Alcotest.test_case "hung scenarios: campaign continues, digest reproducible" `Quick
      test_hung_campaign_digest;
    Alcotest.test_case "shrinker: synthetic oracle fixpoint" `Quick test_shrink_synthetic;
    Alcotest.test_case "shrinker: real injected violation end to end" `Quick
      test_shrink_real_inject;
    Alcotest.test_case "regression: preempt + speculation baseline" `Quick
      test_preempt_speculation_regression;
    Alcotest.test_case "regression: mutation delay past the SLO deadline" `Quick
      test_mutation_deadline_regression;
    Alcotest.test_case "regression: checkpointed SSSP vs un-checkpointed baseline" `Quick
      test_checkpoint_baseline_regression;
    Alcotest.test_case "failure classes" `Quick test_classify;
    Alcotest.test_case "runner rejects non-finite budgets" `Quick test_runner_rejects_budgets;
    (* last: spawns domains, which permanently forbids fork (OCaml 5.1) *)
    Alcotest.test_case "regression: OOM-aborted oracle (SSSP, road network)" `Quick
      test_oom_oracle_regression;
  ]
