(* The compact specs' shared grammar (Spec_error) and the five parsers
   that read through it: faults, scale events, hetero, mutations and
   chaos scenarios. The pinned per-input table lives in test/golden
   (Spec_corpus); this suite holds the inputs the parsers used to
   disagree on, and one property per parser: any string yields a value
   or Spec_error.Error, never another exception, and an accepted spec
   round-trips through its printer. *)

module Spec_error = Cutfit_bsp.Spec_error
module Faults = Cutfit_bsp.Faults
module Elastic = Cutfit_bsp.Elastic
module Speculation = Cutfit_bsp.Speculation
module Mutation = Cutfit_dynamic.Mutation
module Scenario = Cutfit_chaos.Scenario

let checks = Alcotest.(check string)

let rejects what dsl parse spec =
  match parse spec with
  | exception Spec_error.Error e ->
      checks (Printf.sprintf "%s %S: dsl" what spec) dsl e.Spec_error.dsl
  | _ -> Alcotest.failf "%s %S should not parse" what spec

let faults s = Faults.to_spec ((Faults.config s).Faults.items)
let scale s = Elastic.to_spec ((Elastic.config s).Elastic.items)
let mutations s = Mutation.to_spec ((Mutation.config s).Mutation.items)
let chaos s = Scenario.to_spec (Scenario.of_spec s)

(* The multipliers of a profile as a spec: SPEED/BANDWIDTH per executor. *)
let hetero_lit (h : Elastic.hetero) =
  String.concat ","
    (Array.to_list
       (Array.map2
          (fun s b -> Spec_error.float_lit s ^ "/" ^ Spec_error.float_lit b)
          h.Elastic.speeds h.Elastic.bandwidths))

let hetero s = hetero_lit (Elastic.hetero_of_spec ~executors:4 s)

(* --- inputs the parser copies used to disagree on -------------------- *)

let test_non_finite_rejected () =
  List.iter (rejects "hetero" "hetero" hetero) [ "nan"; "1/nan"; "inf/1"; "1e400" ];
  List.iter (rejects "faults" "faults" faults)
    [ "straggler@2:xinf"; "rand@nan"; "net@2:xnan"; "net@2:x-inf" ];
  List.iter (rejects "chaos" "chaos" chaos)
    [ "speculate=nan"; "jobs=0;tenants=a:nan"; "deadline=finf"; "cooldown=nan" ];
  List.iter
    (fun threshold ->
      match Speculation.config ~threshold () with
      | exception Spec_error.Error { dsl = "speculation"; _ } -> ()
      | _ -> Alcotest.failf "speculation threshold %g should be rejected" threshold)
    [ Float.nan; Float.infinity ]

let test_repeated_option_rejected () =
  rejects "faults" "faults" faults "crash@2:e1:e3";
  rejects "faults" "faults" faults "loss@2:r1:e0:r2";
  rejects "scale-events" "scale-events" scale "preempt@2:r2:r3";
  rejects "mutations" "mutations" mutations "ins@1:r4:r5"

let test_options_checked_for_every_kind () =
  rejects "faults" "faults" faults "rand@0.1:x2";
  rejects "scale-events" "scale-events" scale "join@3:r2";
  rejects "mutations" "mutations" mutations "ins@1:x4"

let test_inner_whitespace_accepted () =
  checks "faults" "crash@2:e1,straggler@2-3:x2.5" (faults "crash @ 2 : e 1, straggler@2 - 3:x 2.5 ");
  checks "scale-events" "join@3+2,preempt@4:r2" (scale "join@ 3 + 2,preempt@4: r 2");
  checks "mutations" "ins@2-3:r8" (mutations "INS @ 2 - 3 : r 8");
  checks "hetero" "1/2,1/2,1/2,1/2" (hetero "1 / 2 ");
  checks "chaos" "jobs=3;tenants=a:2+b" (chaos "jobs= 3;tenants=a : 2 + b")

let test_shared_messages () =
  let reason parse spec =
    match parse spec with
    | exception Spec_error.Error e -> e.Spec_error.reason
    | _ -> Alcotest.failf "%S should not parse" spec
  in
  checks "faults window" "window 3-1 is backwards" (reason faults "straggler@3-1");
  checks "mutations window" "window 3-2 is backwards" (reason mutations "ins@3-2");
  checks "faults @" "expected KIND@ARGS" (reason faults "crash");
  checks "mutations @" "expected KIND@ARGS" (reason mutations "ins");
  checks "scale-events option" "option \"x3\" not valid here (allowed: r)"
    (reason scale "preempt@2:x3");
  checks "empty list" "no faults given in \" , \"" (reason faults " , ")

(* A count that would size an allocation is bounded where it is read:
   the ceiling itself parses, one past it is refused naming the item,
   and so is a batch whose items pool past it. *)
let test_count_ceilings () =
  let reason parse spec =
    match parse spec with
    | exception Spec_error.Error e -> (e.Spec_error.item, e.Spec_error.reason)
    | _ -> Alcotest.failf "%S should not parse" spec
  in
  checks "join at the ceiling" "join@1+1000000" (scale "join@1+1000000");
  checks "leave at the ceiling" "leave@1-1000000" (scale "leave@1-1000000");
  checks "rN at the ceiling" "ins@1:r1000000" (mutations "ins@1:r1000000");
  List.iter
    (fun (parse, spec) ->
      let item, why = reason parse spec in
      Alcotest.(check (option string)) (spec ^ ": item") (Some spec) item;
      checks (spec ^ ": reason")
        (Printf.sprintf "count %s is above the ceiling of 1000000"
           (String.sub spec (String.length spec - 13) 13))
        why)
    [
      (scale, "join@1+4000000000000");
      (scale, "leave@1-4000000000000");
      (mutations, "ins@1:r4000000000000");
      (mutations, "del@1:r4000000000000");
    ];
  let _, why = reason mutations "ins@1:r1000001" in
  checks "one past" "count 1000001 is above the ceiling of 1000000" why;
  let spec = "ins@1-2:r600000,del@1:r9,ins@2:r400001" in
  let pooled what f =
    match f () with
    | exception Spec_error.Error e ->
        Alcotest.(check (option string)) (what ^ ": the item that passes") (Some "ins@2:r400001")
          e.Spec_error.item;
        checks (what ^ ": reason") "batch 2 pools 1000001 edges, above the ceiling of 1000000"
          e.Spec_error.reason
    | _ -> Alcotest.failf "%s: a batch pooling 1000001 inserts should be refused" what
  in
  pooled "config" (fun () -> Mutation.config spec);
  (* [plan] refuses it too when the config was built around the parser *)
  let cfg =
    {
      Mutation.items =
        List.concat_map (fun s -> (Mutation.config s).Mutation.items) (String.split_on_char ',' spec);
      seed = 42;
    }
  in
  let g = Test_util.random_graph ~seed:3L ~n:10 ~m:20 in
  Alcotest.(check int) "batch 1 is under the ceiling" 600000
    (Array.length (Mutation.plan cfg ~batch:1 g).Mutation.inserts);
  pooled "plan" (fun () -> Mutation.plan cfg ~batch:2 g)

(* --- one property per parser ------------------------------------------ *)

(* Spec-shaped strings: items of grammar fragments, most of them
   [KIND@ARGS], joined by the list separator. Most are malformed, many
   are valid, and some hold numbers no parser should take. *)
let soup fragments =
  QCheck2.Gen.(list_size (int_range 0 5) (oneofl fragments) >|= String.concat "")

let spec_gen ?(sep = ",") ~kinds fragments =
  let open QCheck2.Gen in
  let item =
    frequency
      [ (4, map2 (fun k a -> k ^ a) (oneofl kinds) (soup fragments)); (1, soup (kinds @ fragments)) ]
  in
  list_size (int_range 0 4) item >|= String.concat sep

let numbers =
  [
    "0"; "1"; "2"; "3"; "7"; "12"; "0.5"; "2.5"; "1e3"; "-1"; "nan"; "inf"; "99999999999999999999";
    "0x10"; "1000000"; "1000001"; "4000000000000";
  ]

let punctuation = [ "@"; ":"; "-"; "+"; ","; " "; "/" ]

(* Total: a value or Spec_error.Error, never another exception (any
   other exception fails the property). *)
let total parse round_trips s =
  match parse s with v -> round_trips v | exception Spec_error.Error _ -> true

let property name gen parse round_trips =
  Test_util.qtest ~count:2000 name ~print:(Printf.sprintf "%S") gen (total parse round_trips)

let faults_prop =
  property "faults: any string parses or is a Spec_error; round-trips"
    (spec_gen
       ~kinds:[ "crash@"; "straggler@"; "net@"; "loss@"; "rand@" ]
       ([ ":e"; ":x"; ":r"; "0.25"; "4" ] @ numbers @ punctuation))
    (fun s -> (Faults.config s).Faults.items)
    (fun items -> (Faults.config (Faults.to_spec items)).Faults.items = items)

let scale_prop =
  property "scale-events: any string parses or is a Spec_error; round-trips"
    (spec_gen ~kinds:[ "join@"; "leave@"; "preempt@" ] ([ ":r"; ":x" ] @ numbers @ punctuation))
    (fun s -> (Elastic.config s).Elastic.items)
    (fun items ->
      List.for_all
        (function
          | Elastic.Join { count; _ } | Elastic.Leave { count; _ } -> count <= Spec_error.max_count
          | Elastic.Preempt _ -> true)
        items
      && (Elastic.config (Elastic.to_spec items)).Elastic.items = items)

let hetero_prop =
  property "hetero: any string parses or is a Spec_error; round-trips"
    (spec_gen ~kinds:[ "1"; "0.5"; "1.5/"; "fast" ] (numbers @ punctuation))
    (Elastic.hetero_of_spec ~executors:4)
    (fun h -> Elastic.hetero_of_spec ~executors:4 (hetero_lit h) = h)

let mutations_prop =
  property "mutations: any string parses or is a Spec_error; round-trips"
    (spec_gen ~kinds:[ "ins@"; "del@"; "INS@"; "grow@" ] ([ ":r"; ":x" ] @ numbers @ punctuation))
    (fun s -> (Mutation.config s).Mutation.items)
    (fun items ->
      List.for_all (fun it -> it.Mutation.edges <= Spec_error.max_count) items
      && (Mutation.config (Mutation.to_spec items)).Mutation.items = items)

let chaos_prop =
  property "chaos: any string parses or is a Spec_error; round-trips"
    (spec_gen ~sep:";"
       ~kinds:
         [ "seed="; "jobs="; "slots="; "speculate="; "cooldown="; "deadline=a"; "deadline=f";
           "tenants=a:"; "tenants=b+a:"; "domains="; "faults=crash@"; "scale=join@"; "mut=ins@";
           "hetero=" ]
       (numbers @ punctuation))
    Scenario.of_spec
    (fun sc ->
      let printed = Scenario.to_spec sc in
      Scenario.equal (Scenario.of_spec printed) sc
      && String.equal (Scenario.to_spec (Scenario.of_spec printed)) printed)

let suite =
  [
    Alcotest.test_case "non-finite numbers are rejected" `Quick test_non_finite_rejected;
    Alcotest.test_case "a repeated option is rejected" `Quick test_repeated_option_rejected;
    Alcotest.test_case "every kind checks its options" `Quick test_options_checked_for_every_kind;
    Alcotest.test_case "inner whitespace is trimmed" `Quick test_inner_whitespace_accepted;
    Alcotest.test_case "one message per shared rule" `Quick test_shared_messages;
    Alcotest.test_case "counts stop at the ceiling" `Quick test_count_ceilings;
    faults_prop;
    scale_prop;
    hetero_prop;
    mutations_prop;
    chaos_prop;
  ]
