(* Dynamic-graph subsystem: the mutation-spec DSL, delta planning and
   application, incremental refresh, the priced refresh-vs-rebuild
   driver, the Dyn_check laws, and the workload engine's mutation
   hook. *)

module Graph = Cutfit_graph.Graph
module Streaming = Cutfit_partition.Streaming
module Metrics = Cutfit_partition.Metrics
module Partitioner = Cutfit_partition.Partitioner
module Mutation = Cutfit.Mutation
module Incremental = Cutfit.Incremental
module Repartition = Cutfit.Repartition
module Dyn_check = Cutfit.Dyn_check
module Sanitize = Cutfit.Sanitize
module Engine = Cutfit_workload.Engine
module Job = Cutfit_workload.Job
module Workload_check = Cutfit_workload.Workload_check

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_clean what vs = checki (what ^ " is clean") 0 (List.length vs)

let g = Test_util.random_graph ~seed:41L ~n:200 ~m:1200
let num_partitions = 8
let cfg = Mutation.config "ins@1-3:r48,del@1-3:r12"

(* --- spec parsing --- *)

let test_parse_spec () =
  (match (Mutation.config "ins@3:r64, del@2-5:r16").Mutation.items with
  | [
   { Mutation.kind = Mutation.Ins; from_batch = 3; to_batch = 3; edges = 64 };
   { Mutation.kind = Mutation.Del; from_batch = 2; to_batch = 5; edges = 16 };
  ] ->
      ()
  | _ -> Alcotest.fail "spec did not parse to the expected items");
  (* rN defaults to r32 *)
  (match (Mutation.config "ins@1").Mutation.items with
  | [ { Mutation.kind = Mutation.Ins; edges = 32; _ } ] -> ()
  | _ -> Alcotest.fail "default rate did not apply");
  checki "max_batch spans all items" 5 (Mutation.max_batch (Mutation.config "ins@3:r64,del@2-5:r16"));
  Alcotest.(check string) "describe mentions the seed" "ins@1 (seed 9)"
    (Mutation.describe (Mutation.config ~seed:9 "ins@1"))

let test_parse_spec_rejects () =
  let rejects spec =
    match (Mutation.config spec).Mutation.items with
    | exception Cutfit_bsp.Spec_error.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "spec %S should not parse" spec)
  in
  List.iter rejects [ ""; "grow@1"; "ins@0"; "ins@3-2"; "ins@1:r0"; "ins@1:x4"; "ins@" ]

(* --- to_spec: the canonical inverse of the spec parser --- *)

let mutation_items_gen =
  let open QCheck2.Gen in
  let item =
    pair
      (pair (oneofl [ Mutation.Ins; Mutation.Del ]) (int_range 1 10))
      (pair (int_range 0 4) (oneofl [ 1; 8; 16; 32; 64 ]))
    >|= fun ((kind, from_batch), (w, edges)) ->
    { Mutation.kind; from_batch; to_batch = from_batch + w; edges }
  in
  list_size (int_range 1 6) item

let test_to_spec_round_trip =
  Test_util.qtest ~count:300 "mutations: parse (to_spec items) = items" ~print:Mutation.to_spec
    mutation_items_gen
    (fun items -> (Mutation.config (Mutation.to_spec items)).Mutation.items = items)

let test_to_spec_minimal () =
  Alcotest.(check string) "defaults omitted" "ins@3,del@2-5:r16"
    (Mutation.to_spec ((Mutation.config "ins@3-3:r32, del@2-5:r16").Mutation.items))

(* --- planning and application --- *)

let test_plan_deterministic () =
  let d1 = Mutation.plan cfg ~batch:2 g in
  let d2 = Mutation.plan cfg ~batch:2 g in
  checkb "same inserts" true (d1.Mutation.inserts = d2.Mutation.inserts);
  checkb "same deletes" true (d1.Mutation.deletes = d2.Mutation.deletes);
  let other = Mutation.plan (Mutation.config ~seed:7 "ins@1-3:r48,del@1-3:r12") ~batch:2 g in
  checkb "seed changes the draw" true (other.Mutation.inserts <> d1.Mutation.inserts)

let test_plan_shape () =
  let d = Mutation.plan cfg ~batch:1 g in
  checki "insert count" 48 (Array.length d.Mutation.inserts);
  checki "delete count" 12 (Array.length d.Mutation.deletes);
  Array.iter
    (fun (s, t) ->
      checkb "endpoints in range" true (s >= 0 && s < 200 && t >= 0 && t < 200);
      checkb "no self loops" true (s <> t))
    d.Mutation.inserts;
  let last = ref (-1) in
  Array.iter
    (fun e ->
      checkb "deletes strictly ascending" true (e > !last);
      checkb "delete id in range" true (e >= 0 && e < Graph.num_edges g);
      last := e)
    d.Mutation.deletes;
  checkb "batch out of spec is empty" true (Mutation.is_empty (Mutation.plan cfg ~batch:9 g));
  Alcotest.check_raises "batch < 1" (Invalid_argument "Mutation.plan: batch < 1") (fun () ->
      ignore (Mutation.plan cfg ~batch:0 g))

let test_apply_matches_scratch_build () =
  let d = Mutation.plan cfg ~batch:1 g in
  let applied = Mutation.apply g d in
  let kept = applied.Mutation.kept in
  let k = Array.length kept in
  let extra = Array.length d.Mutation.inserts in
  let src = Array.make (k + extra) 0 and dst = Array.make (k + extra) 0 in
  Array.iteri
    (fun j e ->
      src.(j) <- Graph.edge_src g e;
      dst.(j) <- Graph.edge_dst g e)
    kept;
  Array.iteri
    (fun i (s, t) ->
      src.(k + i) <- s;
      dst.(k + i) <- t)
    d.Mutation.inserts;
  let scratch = Graph.create ~n:(Graph.num_vertices g) ~src ~dst in
  check_clean "delta identity" (Dyn_check.graph_identity ~expect:scratch applied.Mutation.graph);
  checki "edge arithmetic" (Graph.num_edges g - 12 + 48) (Graph.num_edges applied.Mutation.graph)

let test_kept_excludes_deletes () =
  let d = Mutation.plan cfg ~batch:1 g in
  let kept = (Mutation.apply g d).Mutation.kept in
  checki "kept size" (Graph.num_edges g - Array.length d.Mutation.deletes) (Array.length kept);
  Array.iter
    (fun e -> checkb "no deleted survivor" false (Array.exists (( = ) e) d.Mutation.deletes))
    kept

(* --- incremental refresh --- *)

let test_refresh_preserves_kept_edges () =
  let a = Streaming.assign Streaming.Greedy ~num_partitions g in
  let d = Mutation.plan cfg ~batch:1 g in
  let applied = Mutation.apply g d in
  let r = Incremental.refresh Streaming.Greedy ~num_partitions ~assignment:a applied in
  let kept = applied.Mutation.kept in
  checki "assignment covers the new graph" (Graph.num_edges applied.Mutation.graph)
    (Array.length r.Incremental.assignment);
  Array.iteri
    (fun j e -> checki "kept edge keeps its partition" a.(e) r.Incremental.assignment.(j))
    kept;
  checki "placed = inserts" (Array.length d.Mutation.inserts) r.Incremental.placed_edges;
  checkb "repairs touch at most 2 vertices per delete" true
    (r.Incremental.repaired_vertices <= 2 * Array.length d.Mutation.deletes);
  let g' = applied.Mutation.graph and a' = r.Incremental.assignment in
  let pg = Cutfit_bsp.Pgraph.build g' ~num_partitions a' in
  check_clean "refreshed cut laws"
    (Cutfit_check.Pgraph_check.assignment g' ~num_partitions a'
    @ Cutfit_check.Pgraph_check.validate pg
    @ Cutfit_check.Metrics_check.validate g' ~num_partitions a' (Cutfit_bsp.Pgraph.metrics pg))

let test_refresh_validation () =
  let d = Mutation.plan cfg ~batch:1 g in
  let applied = Mutation.apply g d in
  let refresh assignment =
    ignore (Incremental.refresh Streaming.Greedy ~num_partitions ~assignment applied)
  in
  Alcotest.check_raises "wrong assignment length"
    (Invalid_argument "Incremental.refresh: assignment length mismatch") (fun () ->
      refresh [| 0 |]);
  (* A corrupt partition on a deleted edge is rejected like one on a
     kept edge, although the refreshed cut never carries it. *)
  let a = Streaming.assign Streaming.Greedy ~num_partitions g in
  a.(d.Mutation.deletes.(0)) <- num_partitions;
  Alcotest.check_raises "deleted edge's partition out of range"
    (Invalid_argument "Incremental.refresh: assignment partition out of range") (fun () ->
      refresh a)

(* The O(m) oracle the delta-local count replaced: per-vertex sorted
   replica lists of the whole old and new cuts, compared vertex by
   vertex. *)
let replica_sets g assignment =
  let sets = Array.make (Graph.num_vertices g) [] in
  let add v p = if not (List.mem p sets.(v)) then sets.(v) <- p :: sets.(v) in
  Array.iteri
    (fun e p ->
      add (Graph.edge_src g e) p;
      add (Graph.edge_dst g e) p)
    assignment;
  Array.map (List.sort compare) sets

let rec symdiff a b =
  match (a, b) with
  | [], rest | rest, [] -> List.length rest
  | x :: xs, y :: ys ->
      if x = y then symdiff xs ys
      else if x < y then 1 + symdiff xs (y :: ys)
      else 1 + symdiff (x :: xs) ys

let oracle_moved ~before ~assignment ~after assignment' =
  let olds = replica_sets before assignment and news = replica_sets after assignment' in
  let moved = ref 0 in
  Array.iteri (fun v o -> moved := !moved + symdiff o news.(v)) olds;
  !moved

type moved_case = {
  mc_n : int;
  mc_edges : (int * int) list;
  mc_heuristic : Streaming.t;
  mc_parts : int;
  mc_delta : Mutation.delta;
}

(* Multigraphs with self-loops; deltas are insert-only, delete-only,
   mixed, or delete every edge of one vertex (plus inserts). *)
let moved_case_gen =
  let open QCheck2.Gen in
  int_range 2 24 >>= fun n ->
  int_range 1 90 >>= fun m ->
  list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) >>= fun edges ->
  oneofl [ Streaming.Dbh; Streaming.Greedy; Streaming.Hdrf 1.0; Streaming.Hybrid 3 ]
  >>= fun heuristic ->
  int_range 1 8 >>= fun parts ->
  int_range 0 3 >>= fun mode ->
  list_size (int_range 1 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) >>= fun ins ->
  list_repeat m (float_bound_exclusive 1.0) >|= fun coins ->
  let ids = List.init m Fun.id in
  let deletes =
    match mode with
    | 0 -> []
    | 3 ->
        let v = fst (List.hd edges) in
        List.filter (fun e -> let s, d = List.nth edges e in s = v || d = v) ids
    | _ -> List.filteri (fun e _ -> List.nth coins e < 0.3) ids
  in
  let inserts = if mode = 1 then [] else ins in
  {
    mc_n = n;
    mc_edges = edges;
    mc_heuristic = heuristic;
    mc_parts = parts;
    mc_delta =
      { Mutation.batch = 1; inserts = Array.of_list inserts; deletes = Array.of_list deletes };
  }

let print_moved_case c =
  let pairs l = String.concat ";" (List.map (fun (s, d) -> Printf.sprintf "(%d,%d)" s d) l) in
  Printf.sprintf "n=%d P=%d %s edges=[%s] ins=[%s] del=[%s]" c.mc_n c.mc_parts
    (Streaming.to_string c.mc_heuristic) (pairs c.mc_edges)
    (pairs (Array.to_list c.mc_delta.Mutation.inserts))
    (String.concat ";" (List.map string_of_int (Array.to_list c.mc_delta.Mutation.deletes)))

let prop_moved_replicas_oracle =
  Test_util.qtest ~count:400 "moved replicas = whole-cut oracle" ~print:print_moved_case
    moved_case_gen (fun c ->
      let before = Test_util.graph_of_edges ~n:c.mc_n c.mc_edges in
      let num_partitions = c.mc_parts in
      let assignment = Streaming.assign c.mc_heuristic ~num_partitions before in
      let applied = Mutation.apply before c.mc_delta in
      let r = Incremental.refresh c.mc_heuristic ~num_partitions ~assignment applied in
      r.Incremental.moved_replicas
      = oracle_moved ~before ~assignment ~after:applied.Mutation.graph r.Incremental.assignment)

(* The full replay the endpoint-only refresh replaced: every kept edge
   records its replicas and degrees, not only those at a delta
   endpoint. *)
let full_replay_refresh heuristic ~num_partitions ~assignment (applied : Mutation.applied) =
  let before = applied.Mutation.before and g' = applied.Mutation.graph in
  let delta = applied.Mutation.delta in
  let add p ps = if List.mem p ps then ps else p :: ps in
  let deleted_parts = Hashtbl.create 64 and touched = ref [] in
  let touch v =
    if not (Hashtbl.mem deleted_parts v) then begin
      Hashtbl.add deleted_parts v [];
      touched := v :: !touched
    end
  in
  Array.iter
    (fun e ->
      let p = assignment.(e) in
      List.iter
        (fun v ->
          touch v;
          Hashtbl.replace deleted_parts v (add p (Hashtbl.find deleted_parts v)))
        [ Graph.edge_src before e; Graph.edge_dst before e ])
    delta.Mutation.deletes;
  let repaired_vertices = Hashtbl.length deleted_parts in
  Array.iter
    (fun (s, t) ->
      touch s;
      touch t)
    delta.Mutation.inserts;
  let m' = Graph.num_edges g' and k = Array.length applied.Mutation.kept in
  let st = Streaming.live_create ~n:(Graph.num_vertices g') ~num_partitions in
  let out = Array.make m' 0 in
  Array.iteri
    (fun j e ->
      let p = assignment.(e) in
      Streaming.live_record st ~src:(Graph.edge_src g' j) ~dst:(Graph.edge_dst g' j) p;
      out.(j) <- p)
    applied.Mutation.kept;
  let vw = Streaming.live_view g' st in
  let old_sets =
    List.map
      (fun v ->
        let kept_v = vw.Streaming.v_replicas v in
        (v, List.fold_left (fun ps p -> add p ps) kept_v (Hashtbl.find deleted_parts v)))
      !touched
  in
  for j = k to m' - 1 do
    let src = Graph.edge_src g' j and dst = Graph.edge_dst g' j in
    let p = Streaming.choose heuristic vw ~num_partitions ~src ~dst in
    Streaming.live_record st ~src ~dst p;
    out.(j) <- p
  done;
  let symdiff_count a b =
    let common = List.fold_left (fun acc p -> if List.mem p b then acc + 1 else acc) 0 a in
    List.length a + List.length b - (2 * common)
  in
  let moved_replicas =
    List.fold_left
      (fun acc (v, old) -> acc + symdiff_count old (vw.Streaming.v_replicas v))
      0 old_sets
  in
  {
    Incremental.assignment = out;
    placed_edges = m' - k;
    repaired_vertices;
    moved_replicas;
  }

(* Larger multigraphs with a few hubs and a small delta, so most
   vertices lie outside the delta and replay their load alone. *)
let sparse_delta_case_gen =
  let open QCheck2.Gen in
  int_range 2 200 >>= fun n ->
  let vertex = frequency [ (1, int_range 0 (min 3 (n - 1))); (3, int_range 0 (n - 1)) ] in
  int_range 1 600 >>= fun m ->
  list_repeat m (pair vertex vertex) >>= fun edges ->
  list_size (int_range 0 6) (pair vertex vertex) >>= fun ins ->
  list_size (int_range 0 6) (int_range 0 (m - 1)) >|= fun dels ->
  {
    mc_n = n;
    mc_edges = edges;
    mc_heuristic = Streaming.Greedy;
    mc_parts = 1;
    mc_delta =
      {
        Mutation.batch = 1;
        inserts = Array.of_list ins;
        deletes = Array.of_list (List.sort_uniq compare dels);
      };
  }

(* A moved case or a sparse-delta case under each heuristic at P from
   1 to 256, refreshing either the heuristic's own stream cut or a
   uniformly random one. *)
let replay_case_gen =
  let open QCheck2.Gen in
  oneof [ moved_case_gen; sparse_delta_case_gen ] >>= fun c ->
  oneofl
    [
      Streaming.Greedy; Streaming.Hdrf 1.0; Streaming.Dbh; Streaming.Hybrid 100; Streaming.Hybrid 3;
    ]
  >>= fun heuristic ->
  oneof [ int_range 1 8; int_range 1 256 ] >>= fun parts ->
  list_repeat (List.length c.mc_edges) (int_range 0 (parts - 1)) >>= fun cut ->
  bool >|= fun streamed ->
  ( { c with mc_heuristic = heuristic; mc_parts = parts },
    if streamed then None else Some (Array.of_list cut) )

let prop_refresh_full_replay =
  Test_util.qtest ~count:500 "refresh = full-replay reference"
    ~print:(fun (c, cut) ->
      print_moved_case c ^ if cut = None then " (stream cut)" else " (random cut)")
    replay_case_gen
    (fun (c, cut) ->
      let before = Test_util.graph_of_edges ~n:c.mc_n c.mc_edges in
      let num_partitions = c.mc_parts in
      let assignment =
        match cut with
        | Some a -> a
        | None -> Streaming.assign c.mc_heuristic ~num_partitions before
      in
      let applied = Mutation.apply before c.mc_delta in
      Incremental.refresh c.mc_heuristic ~num_partitions ~assignment applied
      = full_replay_refresh c.mc_heuristic ~num_partitions ~assignment applied)

(* --- pricing and decisions --- *)

let test_prices_monotone () =
  let a = Streaming.assign Streaming.Greedy ~num_partitions g in
  let old_metrics = Metrics.compute g ~num_partitions a in
  let applied = Mutation.apply g (Mutation.plan cfg ~batch:1 g) in
  let priced ?(scale = 1.0) placed moved =
    Repartition.price ~cluster:Cutfit_bsp.Cluster.config_i ~scale ~old_metrics applied
      {
        Incremental.assignment = [||];
        placed_edges = placed;
        repaired_vertices = 4;
        moved_replicas = moved;
      }
  in
  let price placed moved = (priced placed moved).Repartition.refresh_s in
  checkb "more placements cost more" true (price 200 10 > price 20 10);
  checkb "more moved replicas cost more" true (price 20 100 > price 20 10);
  checkb "positive even when idle" true (price 0 0 > 0.0);
  let rebuild = (priced 0 0).Repartition.rebuild_s in
  checkb "rebuild price positive" true (rebuild > 0.0);
  checkb "scale multiplies rebuild" true ((priced ~scale:10.0 0 0).Repartition.rebuild_s > 2.0 *. rebuild)

let test_decide_picks_cheaper () =
  let applied = Mutation.apply g (Mutation.plan cfg ~batch:1 g) in
  let dec =
    match Repartition.run ~batches:1 ~heuristic:Streaming.Greedy ~num_partitions cfg g with
    | [ s ] -> s.Repartition.decision
    | steps -> Alcotest.failf "expected one step, got %d" (List.length steps)
  in
  checkb "choice matches the prices" true
    (dec.Repartition.choice
    = if dec.Repartition.refresh_s <= dec.Repartition.rebuild_s then Repartition.Refresh
      else Repartition.Rebuild);
  checki "decision counts the delta" 48 dec.Repartition.inserts;
  checki "edges after" (Graph.num_edges applied.Mutation.graph) dec.Repartition.edges_after;
  checki "mutation + repartition events" 2
    (List.length (Repartition.events ~graph:"-" ~at_s:0.0 dec));
  (* Over several cuts the sums decide; ties and the empty list go to
     refresh. *)
  let cut refresh_s rebuild_s =
    {
      Repartition.refreshed =
        { Incremental.assignment = [||]; placed_edges = 2; repaired_vertices = 1; moved_replicas = 3 };
      refresh_s;
      rebuild_s;
    }
  in
  let decided cuts = Repartition.decide applied cuts in
  let rebuilt = decided [ cut 1.0 2.0; cut 3.0 1.0 ] in
  checkb "summed prices decide" true (rebuilt.Repartition.choice = Repartition.Rebuild);
  checki "counts are summed" 6 rebuilt.Repartition.moved_replicas;
  checkb "a tie refreshes" true
    ((decided [ cut 1.0 1.0 ]).Repartition.choice = Repartition.Refresh);
  let empty = decided [] in
  checkb "no cut refreshes at 0/0" true
    (empty.Repartition.choice = Repartition.Refresh
    && empty.Repartition.refresh_s = 0.0
    && empty.Repartition.rebuild_s = 0.0)

let test_run_driver_and_events () =
  let steps = Repartition.run ~heuristic:Streaming.Greedy ~num_partitions cfg g in
  checki "one step per non-empty batch" 3 (List.length steps);
  List.iter
    (fun (s : Repartition.step) ->
      checki "metrics describe the adopted cut"
        (Metrics.compute s.Repartition.graph ~num_partitions s.Repartition.assignment)
          .Metrics.comm_cost s.Repartition.metrics.Metrics.comm_cost)
    steps;
  let events =
    List.concat_map
      (fun (s : Repartition.step) -> Repartition.events ~graph:"-" ~at_s:0.0 s.Repartition.decision)
      steps
  in
  let count p = List.length (List.filter p events) in
  checki "one mutation event per batch" 3
    (count (function Cutfit_obs.Event.Mutation_batch _ -> true | _ -> false));
  checki "one repartition event per batch" 3
    (count (function Cutfit_obs.Event.Repartition _ -> true | _ -> false))

(* --- the sanitizer laws themselves --- *)

let test_dyn_check_clean () =
  check_clean "dynamic suite"
    (Dyn_check.validate ~heuristic:(Streaming.Hdrf 1.0) ~num_partitions cfg g)

let test_dyn_check_catches_bad_graph () =
  let d = Mutation.plan cfg ~batch:1 g in
  let applied = (Mutation.apply g d).Mutation.graph in
  let src = Array.init (Graph.num_edges applied) (Graph.edge_src applied) in
  let dst = Array.init (Graph.num_edges applied) (Graph.edge_dst applied) in
  (* corrupt one edge *)
  dst.(0) <- (dst.(0) + 1) mod Graph.num_vertices applied;
  let corrupt = Graph.create ~n:(Graph.num_vertices applied) ~src ~dst in
  let fires what vs =
    checkb (what ^ ": delta-identity fires") true
      (List.exists (fun v -> v.Cutfit_check.Violation.rule = "delta-identity") vs);
    checkb (what ^ ": tagged with the dynamic suite") true
      (List.for_all (fun v -> v.Cutfit_check.Violation.suite = "dynamic") vs)
  in
  fires "corrupt edge" (Dyn_check.graph_identity ~expect:applied corrupt);
  (* Right edge arrays, wrong adjacency, same degrees: the edges
     0->1 and 2->3 kept in the arrays, but spliced as if 0->3 and 2->1
     had been kept instead. Only the two adjacency arrays differ. *)
  let four = Test_util.graph_of_edges ~n:4 [ (0, 1); (2, 3); (0, 3); (2, 1) ] in
  let src = [| 0; 2 |] and dst = [| 1; 3 |] in
  let swapped = Graph.splice four ~deletes:[| 0; 1 |] ~src ~dst in
  let expect = Graph.create ~n:4 ~src:(Array.copy src) ~dst:(Array.copy dst) in
  let vs = Dyn_check.graph_identity ~expect swapped in
  fires "corrupt adjacency" vs;
  Alcotest.(check (list string))
    "both adjacency arrays reported, nothing else"
    [
      "out-adjacency slot 0 is 3, from-scratch build has 1";
      "in-adjacency slot 0 is 2, from-scratch build has 0";
    ]
    (List.map (fun v -> v.Cutfit_check.Violation.detail) vs)

let test_dyn_check_catches_bad_cut () =
  let a = Streaming.assign Streaming.Greedy ~num_partitions g in
  a.(0) <- num_partitions (* out of range *);
  checkb "cut laws fire" true (Cutfit_check.Pgraph_check.assignment g ~num_partitions a <> [])

(* Law 3 on a clean cut: PageRank on a built cut and on a cold rebuild
   of a copied assignment digests to the same value. *)
let test_value_equivalence_clean () =
  let a = Streaming.assign Streaming.Greedy ~num_partitions g in
  let cluster = { Cutfit_bsp.Cluster.config_i with Cutfit_bsp.Cluster.num_partitions } in
  let digest a =
    let pg = Cutfit_bsp.Pgraph.build g ~num_partitions a in
    Cutfit_check.Fault_check.float_attrs_digest
      (Cutfit_algo.Pagerank.run ~iterations:3 ~cluster pg).Cutfit_algo.Pagerank.ranks
  in
  Alcotest.(check string) "pagerank digests agree" (digest a) (digest (Array.copy a))

let test_incremental_partitioner_variant () =
  (match Partitioner.of_string "inc-greedy" with
  | Some (Partitioner.Incremental Streaming.Greedy) -> ()
  | _ -> Alcotest.fail "inc-greedy did not parse");
  let p = Partitioner.Incremental Streaming.Greedy in
  checkb "name roundtrips" true (Partitioner.of_string (Partitioner.name p) = Some p);
  checkb "incremental assigns like its stream" true
    (Partitioner.assign p ~num_partitions g
    = Partitioner.assign (Partitioner.Stream Streaming.Greedy) ~num_partitions g)

let test_sanitize_check_run_dynamic () =
  let r =
    Sanitize.check_run ~dynamic:cfg
      ~cluster:(Test_util.tiny_cluster ~num_partitions ())
      ~partitioner:(Partitioner.Stream Streaming.Greedy) ~algorithm:Cutfit.Advisor.Pagerank g
  in
  checkb "dynamic suite listed" true (List.mem_assoc "dynamic" r.Sanitize.suites);
  check_clean "sanitize run" r.Sanitize.violations

(* --- the workload engine's mutation hook --- *)

let engine_mix =
  {
    Job.name = "dyn-test";
    description = "two datasets, one granularity, for mutation tests";
    algorithms = [ (Cutfit.Advisor.Pagerank, 2.0); (Cutfit.Advisor.Connected_components, 1.0) ];
    datasets = [ ("roadnet_pa", 2.0); ("youtube", 1.0) ];
    partition_counts = [ (32, 1.0) ];
    mean_interarrival_s = 0.5;
  }

let stream = Job.generate ~seed:21L ~jobs:10 engine_mix

let run_engine ?telemetry ?(mutation_mode = Engine.Priced) () =
  Engine.run ~slots:2 ~budget_bytes:8.0e9 ~iterations:4 ?telemetry
    ~mutations:(Mutation.config "ins@1-6:r48,del@1-6:r12")
    ~mutate_every:3 ~mutation_mode ~seed:21L stream

let test_engine_mutations_deterministic () =
  checkb "run-twice digest" true
    (Workload_check.run_twice ~label:"engine+mutations" (fun () -> run_engine ()) = [])

let test_engine_mutations_clean () =
  let sink, read = Cutfit_obs.Sink.ring ~capacity:8192 () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let report = run_engine ~telemetry () in
  Cutfit_obs.Telemetry.close telemetry;
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun v -> v.Cutfit_check.Violation.rule)
       (Workload_check.report ~events:(read ()) report));
  checkb "batches landed" true (List.length report.Engine.mutations > 0);
  List.iter
    (fun (m : Engine.mutation_record) ->
      checkb "prices nonnegative" true (m.Engine.mut_refresh_s >= 0.0 && m.Engine.mut_rebuild_s >= 0.0);
      checkb "choice named" true (m.Engine.mut_choice = "refresh" || m.Engine.mut_choice = "rebuild");
      checkb "refreshes bounded by drops" true
        (m.Engine.mut_refreshed_entries <= m.Engine.mut_dropped_entries))
    report.Engine.mutations

let test_engine_forced_modes_diverge () =
  let refr = run_engine ~mutation_mode:Engine.Force_refresh () in
  let rebd = run_engine ~mutation_mode:Engine.Force_rebuild () in
  List.iter
    (fun (m : Engine.mutation_record) -> checkb "forced refresh" true (m.Engine.mut_choice = "refresh"))
    refr.Engine.mutations;
  List.iter
    (fun (m : Engine.mutation_record) ->
      checkb "forced rebuild" true (m.Engine.mut_choice = "rebuild");
      checki "rebuild refreshes nothing" 0 m.Engine.mut_refreshed_entries)
    rebd.Engine.mutations;
  checkb "refresh keeps more of the cache warm" true
    (Engine.hit_rate refr >= Engine.hit_rate rebd)

let test_engine_mutation_mode_strings () =
  List.iter
    (fun m ->
      checkb "mode roundtrips" true
        (Engine.mutation_mode_of_string (Engine.mutation_mode_name m) = Some m))
    [ Engine.Priced; Engine.Force_refresh; Engine.Force_rebuild ];
  checkb "unknown rejected" true (Engine.mutation_mode_of_string "bogus" = None)

(* --- the standalone decisions, pinned bit for bit --- *)

(* [cutfit mutate] prints prices through [fsig], at one or two
   significant digits, so its stdout pins cannot see a changed sum.
   Each decision of [Repartition.run] is pinned here with its prices as
   IEEE-754 bits, and its events by digest. *)
let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let decision_line (d : Repartition.decision) =
  String.concat " "
    [
      string_of_int d.Repartition.batch;
      bits d.Repartition.refresh_s;
      bits d.Repartition.rebuild_s;
      Repartition.choice_name d.Repartition.choice;
      string_of_int d.Repartition.inserts;
      string_of_int d.Repartition.deletes;
      string_of_int d.Repartition.edges_after;
      string_of_int d.Repartition.placed_edges;
      string_of_int d.Repartition.repaired_vertices;
      string_of_int d.Repartition.moved_replicas;
    ]

let events_digest events =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Cutfit_obs.Event.to_line events)))

let test_decisions_pinned () =
  let hdrf = Option.get (Streaming.of_string "hdrf") in
  let cfg = Mutation.config "ins@1-4:r64,del@1-4:r16" in
  List.iter
    (fun (dataset, heuristic, expected, expected_digest) ->
      let g = Cutfit.Datasets.generate (Cutfit.Datasets.find dataset) in
      let steps = Repartition.run ~heuristic ~num_partitions:128 cfg g in
      let decisions = List.map (fun (s : Repartition.step) -> s.Repartition.decision) steps in
      let what = dataset ^ " " ^ Streaming.to_string heuristic in
      Alcotest.(check (list string))
        what expected
        (List.map decision_line decisions);
      Alcotest.(check string)
        (what ^ " events") expected_digest
        (events_digest (List.concat_map (Repartition.events ~graph:"-" ~at_s:0.0) decisions)))
    [
      ( "youtube",
        Streaming.Greedy,
        [
          "1 3f850aed68b615a0 3fb03e7d7adb2b16 refresh 64 16 37282 64 32 63";
          "2 3f850aed68b615a0 3fb03eb14b6706a0 refresh 64 16 37330 64 32 63";
          "3 3f85094db7b168f4 3fb03ed9fd4131c7 refresh 64 16 37378 64 31 62";
          "4 3f850b80aa40b6ed 3fb03efd00713f08 refresh 64 16 37426 64 31 64";
        ],
        "60e90d5aa2171f9c7573458bdf78b072" );
      ( "youtube",
        hdrf,
        [
          "1 3f850aed68b615a0 3fb03e639855ccbc refresh 64 16 37282 64 32 63";
          "2 3f850aed68b615a0 3fb03e9d29711292 refresh 64 16 37330 64 32 63";
          "3 3f850b80aa40b6ed 3fb03ec5db4b3db9 refresh 64 16 37378 64 31 64";
          "4 3f850a6730f90ff1 3fb03effe0b8f42e refresh 64 16 37426 64 31 63";
        ],
        "d924f1c8d37bd25e0483beb83161edbc" );
      ( "roadnet_pa",
        Streaming.Greedy,
        [
          "1 3f850c06e1fdbc9c 3fb0345b96662721 refresh 64 16 31118 64 32 64";
          "2 3f8509d3ef6e6ea4 3fb03488abd86ab9 refresh 64 16 31166 64 32 62";
          "3 3f850c06e1fdbc9c 3fb034b915e4d416 refresh 64 16 31214 64 32 64";
          "4 3f850d205b456399 3fb034f4b97ae071 refresh 64 16 31262 64 32 65";
        ],
        "4478769ff4499c5e73746a012a0dbfa0" );
      ( "roadnet_pa",
        hdrf,
        [
          "1 3f850c06e1fdbc9c 3fb02e6fe2c83cde refresh 64 16 31118 64 32 64";
          "2 3f850aed68b615a0 3fb02e9fd882359d refresh 64 16 31166 64 32 63";
          "3 3f850c06e1fdbc9c 3fb02ec7a1b77f87 refresh 64 16 31214 64 32 64";
          "4 3f850d205b456399 3fb02f0625954108 refresh 64 16 31262 64 32 65";
        ],
        "309980d3327b9ac983fca05a3f4cadff" );
    ]

(* With no cache budget no partitioning is ever resident, so every
   batch decides over no cut: refresh at 0/0, nothing refreshed, and
   both events still emitted. *)
let test_engine_empty_resident () =
  let sink, read = Cutfit_obs.Sink.ring ~capacity:8192 () in
  let telemetry = Cutfit_obs.Telemetry.create ~sinks:[ sink ] () in
  let report =
    Engine.run ~slots:2 ~budget_bytes:0.0 ~iterations:4 ~telemetry
      ~mutations:(Mutation.config "ins@1-6:r48,del@1-6:r12")
      ~mutate_every:3 ~seed:21L stream
  in
  Cutfit_obs.Telemetry.close telemetry;
  let batches = List.length report.Engine.mutations in
  checkb "batches landed" true (batches > 0);
  List.iter
    (fun (m : Engine.mutation_record) ->
      Alcotest.(check string) "refresh price" (bits 0.0) (bits m.Engine.mut_refresh_s);
      Alcotest.(check string) "rebuild price" (bits 0.0) (bits m.Engine.mut_rebuild_s);
      Alcotest.(check string) "ties go to refresh" "refresh" m.Engine.mut_choice;
      checki "nothing refreshed" 0 m.Engine.mut_refreshed_entries)
    report.Engine.mutations;
  let events = read () in
  let count p = List.length (List.filter p events) in
  checki "one mutation event per batch" batches
    (count (function Cutfit_obs.Event.Mutation_batch _ -> true | _ -> false));
  checki "one repartition event per batch" batches
    (count (function
      | Cutfit_obs.Event.Repartition r ->
          r.Cutfit_obs.Event.choice = "refresh"
          && Int64.bits_of_float r.Cutfit_obs.Event.refresh_s = 0L
          && Int64.bits_of_float r.Cutfit_obs.Event.rebuild_s = 0L
      | _ -> false))

let suite =
  [
    Alcotest.test_case "parse spec" `Quick test_parse_spec;
    Alcotest.test_case "parse rejects" `Quick test_parse_spec_rejects;
    test_to_spec_round_trip;
    Alcotest.test_case "to_spec prints the minimal form" `Quick test_to_spec_minimal;
    Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan shape" `Quick test_plan_shape;
    Alcotest.test_case "apply = scratch build" `Quick test_apply_matches_scratch_build;
    Alcotest.test_case "kept excludes deletes" `Quick test_kept_excludes_deletes;
    Alcotest.test_case "refresh preserves kept edges" `Quick test_refresh_preserves_kept_edges;
    Alcotest.test_case "refresh validation" `Quick test_refresh_validation;
    prop_moved_replicas_oracle;
    prop_refresh_full_replay;
    Alcotest.test_case "prices monotone" `Quick test_prices_monotone;
    Alcotest.test_case "decide picks cheaper" `Quick test_decide_picks_cheaper;
    Alcotest.test_case "driver + events" `Quick test_run_driver_and_events;
    Alcotest.test_case "dyn check clean" `Quick test_dyn_check_clean;
    Alcotest.test_case "dyn check catches bad graph" `Quick test_dyn_check_catches_bad_graph;
    Alcotest.test_case "dyn check catches bad cut" `Quick test_dyn_check_catches_bad_cut;
    Alcotest.test_case "value equivalence" `Quick test_value_equivalence_clean;
    Alcotest.test_case "incremental partitioner" `Quick test_incremental_partitioner_variant;
    Alcotest.test_case "sanitize --dynamic" `Quick test_sanitize_check_run_dynamic;
    Alcotest.test_case "engine mutations deterministic" `Quick test_engine_mutations_deterministic;
    Alcotest.test_case "engine mutations clean" `Quick test_engine_mutations_clean;
    Alcotest.test_case "forced modes diverge" `Quick test_engine_forced_modes_diverge;
    Alcotest.test_case "mutation mode strings" `Quick test_engine_mutation_mode_strings;
    Alcotest.test_case "decisions pinned" `Quick test_decisions_pinned;
    Alcotest.test_case "engine empty-resident batches" `Quick test_engine_empty_resident;
  ]
