(* The dynamic race sanitizer: the Ownership recorder's conflict rules,
   the shadowed kernels' cleanliness at several domain counts, the
   shadow hook of each production kernel, and the detector's ability to
   catch seeded corruptions. *)

module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Csr = Cutfit_bsp.Csr
module Ownership = Cutfit_bsp.Ownership
module Check = Cutfit_check
module Kernel_check = Cutfit_check.Kernel_check
module Advisor = Cutfit.Advisor
module Sanitize = Cutfit.Sanitize

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let cluster = Test_util.tiny_cluster ()
let np = cluster.Cluster.num_partitions

let pg_of g =
  let a = Partitioner.assign (Partitioner.Hash Strategy.Rvc) ~num_partitions:np g in
  Pgraph.build g ~num_partitions:np a

let g = Test_util.random_graph ~seed:77L ~n:160 ~m:1100
let pg = pg_of g
let csr = Csr.build pg

let rules vs = List.sort_uniq String.compare (List.map (fun v -> v.Check.Violation.rule) vs)
let has_rule r vs = List.exists (fun v -> v.Check.Violation.rule = r) vs

(* --- the recorder itself ------------------------------------------- *)

let test_ownership_clean () =
  let own = Ownership.create ~slots:4 ~workers:2 in
  checki "first epoch" 1 (Ownership.epoch own);
  Ownership.write own ~worker:0 ~item:0 0;
  Ownership.write own ~worker:1 ~item:1 1;
  Ownership.barrier own;
  (* Next epoch: reading last epoch's slots is legal, once per slot. *)
  Ownership.read own ~worker:0 ~item:2 0;
  Ownership.read own ~worker:1 ~item:3 1;
  Ownership.barrier own;
  checkb "no conflicts" true (Ownership.violations own = []);
  checki "epoch advanced" 3 (Ownership.epoch own);
  checki "writes seen" 2 (Ownership.writes_seen own);
  checki "reads seen" 2 (Ownership.reads_seen own)

let test_ownership_slot_conflict () =
  let own = Ownership.create ~slots:4 ~workers:2 in
  Ownership.write own ~worker:0 ~item:0 2;
  Ownership.write own ~worker:1 ~item:5 2;
  Ownership.barrier own;
  match Ownership.violations own with
  | [ c ] ->
      checks "rule" "slot-conflict" c.Ownership.rule;
      checki "slot" 2 c.Ownership.slot;
      checki "epoch" 1 c.Ownership.epoch;
      checki "first item" 0 c.Ownership.first_item;
      checki "second item" 5 c.Ownership.second_item
  | vs -> Alcotest.failf "expected exactly one conflict, got %d" (List.length vs)

let test_ownership_premature_read () =
  let own = Ownership.create ~slots:4 ~workers:1 in
  Ownership.write own ~worker:0 ~item:0 1;
  Ownership.read own ~worker:0 ~item:3 1;
  Ownership.barrier own;
  match Ownership.violations own with
  | [ c ] ->
      checks "rule" "premature-read" c.Ownership.rule;
      checki "slot" 1 c.Ownership.slot
  | vs -> Alcotest.failf "expected exactly one conflict, got %d" (List.length vs)

let test_ownership_consume_conflict () =
  let own = Ownership.create ~slots:4 ~workers:2 in
  Ownership.write own ~worker:0 ~item:0 3;
  Ownership.barrier own;
  Ownership.read own ~worker:0 ~item:1 3;
  Ownership.read own ~worker:1 ~item:2 3;
  Ownership.barrier own;
  match Ownership.violations own with
  | [ c ] ->
      checks "rule" "consume-conflict" c.Ownership.rule;
      checki "epoch" 2 c.Ownership.epoch
  | vs -> Alcotest.failf "expected exactly one conflict, got %d" (List.length vs)

let test_ownership_out_of_range () =
  let own = Ownership.create ~slots:4 ~workers:1 in
  Ownership.write own ~worker:0 ~item:0 99;
  Ownership.barrier own;
  checkb "out of range caught" true
    (List.exists (fun c -> c.Ownership.rule = "slot-out-of-range") (Ownership.violations own))

let test_ownership_worker_independent () =
  (* The same item stream split across different workers must yield the
     same verdicts: conflicts are item-based, not worker-based. *)
  let run workers placement =
    let own = Ownership.create ~slots:8 ~workers in
    List.iteri
      (fun i slot -> Ownership.write own ~worker:(placement i) ~item:i slot)
      [ 0; 1; 2; 1 ];
    Ownership.barrier own;
    List.map
      (fun c -> Format.asprintf "%a" Ownership.pp_conflict c)
      (Ownership.violations own)
  in
  let one = run 1 (fun _ -> 0) in
  let four = run 4 (fun i -> i mod 4) in
  checkb "same verdicts at 1 and 4 workers" true (one = four);
  checkb "conflict found" true (one <> [])

(* --- shadowed kernels are clean ------------------------------------ *)

let domains_counts = [ 1; 2; 4 ]

let test_kernels_clean () =
  let landmarks = Cutfit_algo.Sssp.pick_landmarks ~seed:11L ~count:3 g in
  List.iter
    (fun (Test_util.Kernel k) ->
      checkb (k.Kernel_check.label ^ " clean") true
        (Kernel_check.races k ~plain:(lazy (Kernel_check.plain k csr)) ~domains_counts csr = []))
    (Test_util.kernels ~landmarks)

(* --- seeded corruptions are caught --------------------------------- *)

let test_seeded_foreign_write () =
  List.iter
    (fun domains ->
      let vs = Kernel_check.seeded_foreign_write ~domains csr in
      checkb "non-empty" true (vs <> []);
      checkb "slot-conflict surfaced" true (has_rule "slot-conflict" vs);
      (* The corruption makes items 0 and 1 claim slot 0; the report must
         name both. *)
      let detail =
        String.concat " " (List.map (fun v -> v.Check.Violation.detail) vs)
      in
      checkb "names the slot" true (Test_util.contains "slot 0" detail))
    [ 2; 4 ]

let test_seeded_premature_read () =
  let vs = Kernel_check.seeded_premature_read ~domains:2 csr in
  checkb "non-empty" true (vs <> []);
  checkb "premature-read surfaced" true (has_rule "premature-read" vs)

let test_seeded_deterministic () =
  let show vs = Format.asprintf "%a" Check.Violation.pp_list vs in
  let a = show (Kernel_check.seeded_foreign_write ~domains:2 csr) in
  let b = show (Kernel_check.seeded_foreign_write ~domains:2 csr) in
  checks "same report across runs" a b;
  (* Across domain counts the label names the count but the conflicts
     themselves must be identical. *)
  let rules_of d = rules (Kernel_check.seeded_foreign_write ~domains:d csr) in
  checkb "same rules across domain counts" true (rules_of 2 = rules_of 4)

let test_self_check () = checkb "detector detects" true (Kernel_check.self_check csr = [])

(* --- the shadow hook of the production kernels ------------------------

   Each [run_csr ~shadow] must record, stay clean and return the
   unshadowed values bit for bit. The skewed cut puts every edge in
   partition 0 and every slot in the one chunk, so one scatter item and
   one reduce item fill a whole recording buffer: a buffer sized below
   the largest item raises instead of storing out of bounds. *)

let skewed = Pgraph.build g ~num_partitions:np (Array.make (Cutfit_graph.Graph.num_edges g) 0)

let three_chunks = lazy (pg_of (Test_util.random_graph ~seed:78L ~n:9000 ~m:24000))

(* Triangle counting records only the reduce's per-vertex writes, so
   its shadow sees no reads. *)
let check_shadow_hook (cut, pg) =
  let c = Csr.build pg in
  List.iter
    (fun (Test_util.Kernel k) ->
      let run ?shadow domains = k.Kernel_check.digest (k.Kernel_check.csr ~domains ?shadow c) in
      let plain = run 1 in
      List.iter
        (fun domains ->
          let own = Csr.shadow ~vertex_space:k.Kernel_check.vertex_space ~workers:domains c in
          let shadowed = run ~shadow:own domains in
          let ctx what =
            Printf.sprintf "%s, %s cut, domains=%d: %s" k.Kernel_check.label cut domains what
          in
          checks (ctx "values") plain shadowed;
          checkb (ctx "writes recorded") true (Ownership.writes_seen own > 0);
          checkb (ctx "reads recorded") (not k.Kernel_check.vertex_space)
            (Ownership.reads_seen own > 0);
          checki (ctx "conflicts") 0 (List.length (Ownership.violations own)))
        domains_counts)
    (Test_util.kernels ~landmarks:[| 0; 7 |])

let test_shadow_hook () =
  List.iter check_shadow_hook
    [ ("rvc", pg); ("skewed", skewed); ("3-chunk rvc", Lazy.force three_chunks) ]

(* --- sanitizer wiring ----------------------------------------------- *)

(* On one Csr the races suite's unshadowed reference is the engines
   suite's first run at one domain: the two suites run it once. *)
let test_suites_share_plain_run () =
  let k = Kernel_check.pagerank in
  let plain_runs = ref 0 in
  let counted =
    {
      k with
      Kernel_check.csr =
        (fun ~domains ?rounds ?shadow c ->
          if domains = 1 && Option.is_none shadow then incr plain_runs;
          k.Kernel_check.csr ~domains ?rounds ?shadow c);
    }
  in
  let plain = lazy (Kernel_check.plain counted csr) in
  let engines =
    Kernel_check.engines counted
      ~oracle:(k.Kernel_check.digest Cutfit_algo.Pagerank.(run ~cluster pg).ranks)
      ~plain
      ~domains_counts csr
  in
  let races = Kernel_check.races counted ~plain ~domains_counts csr in
  checki "engines clean" 0 (List.length engines);
  checki "races clean" 0 (List.length races);
  checki "unshadowed one-domain runs: the shared one and run-twice" 2 !plain_runs

let test_sanitize_races_suite () =
  let report =
    Sanitize.check_run ~cluster ~race_domains:[ 1; 2 ] ~algorithm:Advisor.Pagerank g
  in
  checkb "report ok" true (Sanitize.ok report);
  checkb "races suite present" true (List.mem_assoc "races" report.Sanitize.suites);
  checki "races suite clean" 0 (List.assoc "races" report.Sanitize.suites)

let suite =
  [
    Alcotest.test_case "ownership clean" `Quick test_ownership_clean;
    Alcotest.test_case "ownership slot conflict" `Quick test_ownership_slot_conflict;
    Alcotest.test_case "ownership premature read" `Quick test_ownership_premature_read;
    Alcotest.test_case "ownership consume conflict" `Quick test_ownership_consume_conflict;
    Alcotest.test_case "ownership out of range" `Quick test_ownership_out_of_range;
    Alcotest.test_case "ownership worker independent" `Quick test_ownership_worker_independent;
    Alcotest.test_case "instrumented kernels clean" `Slow test_kernels_clean;
    Alcotest.test_case "seeded foreign write caught" `Quick test_seeded_foreign_write;
    Alcotest.test_case "seeded premature read caught" `Quick test_seeded_premature_read;
    Alcotest.test_case "seeded reports deterministic" `Quick test_seeded_deterministic;
    Alcotest.test_case "detector self-check" `Quick test_self_check;
    Alcotest.test_case "sanitizer races suite" `Slow test_sanitize_races_suite;
    Alcotest.test_case "shadow hook on the four kernels" `Slow test_shadow_hook;
    Alcotest.test_case "engines and races share one plain run" `Quick test_suites_share_plain_run;
  ]
