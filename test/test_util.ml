(* Shared helpers for the test suites. *)

module Graph = Cutfit_graph.Graph
module Edge_list = Cutfit_graph.Edge_list

let graph_of_edges ~n edges =
  let el = Edge_list.of_list edges in
  Graph.of_edge_list ~n el

(* A deterministic pseudo-random directed graph for property tests. *)
let random_graph ~seed ~n ~m =
  let rng = Cutfit_prng.Xoshiro.create seed in
  let el = Edge_list.create ~capacity:m () in
  for _ = 1 to m do
    let s = Cutfit_prng.Xoshiro.next_int rng n in
    let d = Cutfit_prng.Xoshiro.next_int rng n in
    if s <> d then Edge_list.add el ~src:s ~dst:d
  done;
  Graph.of_edge_list ~n (Edge_list.dedup el)

(* QCheck generator producing (n, edge list) pairs for small graphs. *)
let small_graph_gen =
  let open QCheck2.Gen in
  int_range 2 40 >>= fun n ->
  int_range 0 120 >>= fun m ->
  list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) >|= fun edges ->
  (n, List.filter (fun (s, d) -> s <> d) edges)

let print_small_graph (n, edges) =
  Printf.sprintf "n=%d edges=[%s]" n
    (String.concat ";" (List.map (fun (s, d) -> Printf.sprintf "(%d,%d)" s d) edges))

let build (n, edges) =
  let el = Edge_list.of_list edges in
  Graph.of_edge_list ~n (Edge_list.dedup el)

(* [random_graph] without the cleaning: self-loops, parallel and
   reciprocal edges all stay. *)
let random_multigraph ~seed ~n ~m =
  let rng = Cutfit_prng.Xoshiro.create seed in
  let el = Edge_list.create ~capacity:m () in
  for _ = 1 to m do
    let s = Cutfit_prng.Xoshiro.next_int rng n in
    Edge_list.add el ~src:s ~dst:(Cutfit_prng.Xoshiro.next_int rng n)
  done;
  Graph.of_edge_list ~n el

(* Like [small_graph_gen] but self-loops and parallel edges are kept;
   few vertices make both common. Freeze with [graph_of_edges]. *)
let small_multigraph_gen =
  let open QCheck2.Gen in
  int_range 1 12 >>= fun n ->
  int_range 0 60 >>= fun m -> list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  >|= fun edges -> (n, edges)

(* Tiny cluster configuration so engine tests run on graphs of tens of
   vertices with a handful of partitions. *)
let tiny_cluster ?(num_partitions = 8) () =
  {
    Cutfit_bsp.Cluster.config_i with
    Cutfit_bsp.Cluster.name = "(test)";
    num_partitions;
    executors = 2;
    cores_per_executor = 4;
  }

let qtest ?(count = 100) name ?print gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)
