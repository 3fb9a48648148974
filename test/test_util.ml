(* Shared helpers for the test suites. *)

module Graph = Cutfit_graph.Graph
module Edge_list = Cutfit_graph.Edge_list

let edge_list edges =
  let el = Edge_list.create () in
  List.iter (fun (src, dst) -> Edge_list.add el ~src ~dst) edges;
  el

let graph_of_edges ~n edges = Graph.of_edge_list ~n (edge_list edges)

(* The in-neighbours of [v] in storage order (ascending). *)
let in_neighbors g v =
  let acc = ref [] in
  Graph.iter_in g v (fun u -> acc := u :: !acc);
  Array.of_list (List.rev !acc)

(* Every edge other than a self-loop has its reverse. *)
let is_symmetric g =
  let ok = ref true in
  Graph.iter_edges g (fun ~src ~dst -> if src <> dst && not (Graph.has_edge g ~src:dst ~dst:src) then ok := false);
  !ok

(* Per-vertex triangle counts and the total by the canonical-instance
   rule, edge by edge: an instance [s -> d] is canonical when [s <> d]
   and either [s < d] or no [d -> s] exists; it closes one triangle with
   each common undirected neighbour [x] above both endpoints. On a
   simple graph this is the plain undirected triangle count. *)
let brute_force_triangles (n, edges) =
  let adj = Array.make_matrix n n false in
  List.iter
    (fun (s, d) ->
      adj.(s).(d) <- true;
      adj.(d).(s) <- true)
    edges;
  let counts = Array.make n 0 in
  List.iter
    (fun (s, d) ->
      if s <> d && (s < d || not (List.mem (d, s) edges)) then
        for x = max s d + 1 to n - 1 do
          if adj.(s).(x) && adj.(d).(x) then begin
            counts.(s) <- counts.(s) + 1;
            counts.(d) <- counts.(d) + 1;
            counts.(x) <- counts.(x) + 1
          end
        done)
    edges;
  (counts, Array.fold_left ( + ) 0 counts / 3)

(* The [(n, edges)] case behind a frozen graph, for the list oracles. *)
let edges_of g = (Graph.num_vertices g, List.init (Graph.num_edges g) (fun i -> (Graph.edge_src g i, Graph.edge_dst g i)))

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

let build (n, edges) = Graph.of_edge_list ~n (Edge_list.dedup (edge_list edges))

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

(* --- boxed programs ---

   The engine's programs own their vertex state in flat typed arrays.
   Tests often want the older, polymorphic shape instead: values and
   messages of any type, a vertex program and a message combiner. The
   adapter below keeps such a program's values and messages in boxed
   arrays and drives them from the engine's store/merge protocol. *)

module Pregel = Cutfit_bsp.Pregel

type ('v, 'm) boxed_program = {
  init : int -> 'v;  (** initial value per vertex *)
  initial_msg : 'm;  (** delivered to every vertex at superstep 0 *)
  vprog : int -> 'v -> 'm -> 'v;
  send : src:int -> dst:int -> src_attr:'v -> dst_attr:'v -> emit:(Pregel.direction -> 'm -> unit) -> unit;
  merge : 'm -> 'm -> 'm;
  state_bytes : int;
  msg_bytes : int;
}

(* The engine program for [b] on [n] vertices, and an accessor for its
   values. Superstep 0 (vprog with the initial message everywhere)
   runs here, when the program is built. [static_emits] (default
   [false]) is passed to the engine as the program's declaration. *)
let boxed ?(static_emits = false) ~n b =
  let attrs = Array.init n (fun v -> b.vprog v (b.init v) b.initial_msg) in
  let part = Array.make n b.initial_msg and acc = Array.make n b.initial_msg in
  let send ~src ~dst ~emit =
    b.send ~src ~dst ~src_attr:attrs.(src) ~dst_attr:attrs.(dst) ~emit:(fun dir m ->
        let v = match dir with Pregel.To_src -> src | Pregel.To_dst -> dst in
        if emit dir then part.(v) <- m else part.(v) <- b.merge part.(v) m)
  in
  let flush v ~first = if first then acc.(v) <- part.(v) else acc.(v) <- b.merge acc.(v) part.(v) in
  let apply v = attrs.(v) <- b.vprog v attrs.(v) acc.(v) in
  ( {
      Pregel.send;
      flush;
      apply;
      static_emits;
      state_bytes = b.state_bytes;
      msg_bytes = b.msg_bytes;
    },
    fun () -> attrs )

type 'v boxed_result = { attrs : 'v array; trace : Cutfit_bsp.Trace.t }

let run_boxed ?static_emits ?max_supersteps ?scale ?what_if ?telemetry ~cluster pg b =
  let n = Graph.num_vertices (Cutfit_bsp.Pgraph.graph pg) in
  let program, values = boxed ?static_emits ~n b in
  let trace = Pregel.run ?max_supersteps ?scale ?what_if ?telemetry ~cluster pg program in
  { attrs = values (); trace }

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

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The kernel table as one list; each entry keeps its own value type. *)
type kernel = Kernel : 'v Cutfit_check.Kernel_check.t -> kernel

let kernels ~landmarks =
  Cutfit_check.Kernel_check.
    [
      Kernel pagerank;
      Kernel connected_components;
      Kernel (shortest_paths ~landmarks);
      Kernel triangle_count;
    ]
