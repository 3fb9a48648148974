module Graph = Cutfit_graph.Graph
module Edge_list = Cutfit_graph.Edge_list
module Union_find = Cutfit_graph.Union_find
module Components = Cutfit_graph.Components
module Bfs = Cutfit_graph.Bfs
module Triangles = Cutfit_graph.Triangles
module Diameter = Cutfit_graph.Diameter
module Graph_io = Cutfit_graph.Graph_io
module Characterize = Cutfit_graph.Characterize

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Edge_list --- *)

let test_edge_list_basic () =
  let el = Edge_list.create () in
  Edge_list.add el ~src:1 ~dst:2;
  Edge_list.add el ~src:3 ~dst:4;
  checki "length" 2 (Edge_list.length el);
  let srcs, dsts = Edge_list.to_arrays el in
  checki "src 0" 1 srcs.(0);
  checki "dst 1" 4 dsts.(1)

let test_edge_list_growth () =
  let el = Edge_list.create ~capacity:1 () in
  for i = 0 to 999 do
    Edge_list.add el ~src:i ~dst:(i + 1)
  done;
  checki "grew" 1000 (Edge_list.length el);
  checki "last src" 999 (fst (Edge_list.to_arrays el)).(999)

let test_edge_list_dedup () =
  let el = Test_util.edge_list [ (1, 2); (1, 2); (2, 1); (3, 3); (0, 1) ] in
  let d = Edge_list.dedup el in
  checki "dup and loop removed" 3 (Edge_list.length d);
  let d2 = Edge_list.dedup ~drop_self_loops:false (Test_util.edge_list [ (3, 3); (3, 3) ]) in
  checki "loop kept when asked" 1 (Edge_list.length d2)

(* --- Graph --- *)

let diamond = Test_util.graph_of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_graph_degrees () =
  checki "out 0" 2 (Graph.out_degree diamond 0);
  checki "in 3" 2 (Graph.in_degree diamond 3);
  checki "in 0" 0 (Graph.in_degree diamond 0);
  checki "edges" 4 (Graph.num_edges diamond);
  checki "vertices" 4 (Graph.num_vertices diamond)

let test_graph_neighbors_sorted () =
  Alcotest.(check (array int)) "out 0" [| 1; 2 |] (Graph.out_neighbors diamond 0);
  Alcotest.(check (array int)) "in 3" [| 1; 2 |] (Test_util.in_neighbors diamond 3)

let test_graph_has_edge () =
  checkb "0->1" true (Graph.has_edge diamond ~src:0 ~dst:1);
  checkb "1->0" false (Graph.has_edge diamond ~src:1 ~dst:0);
  checkb "0->3" false (Graph.has_edge diamond ~src:0 ~dst:3)

let test_graph_rejects_bad_input () =
  Alcotest.check_raises "dst out of range" (Invalid_argument "Graph.create: dst out of range")
    (fun () -> ignore (Graph.create ~n:2 ~src:[| 0 |] ~dst:[| 5 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Graph.create: src/dst length mismatch") (fun () ->
      ignore (Graph.create ~n:2 ~src:[| 0; 1 |] ~dst:[| 1 |]))

let test_graph_symmetrize () =
  let s = Graph.symmetrize diamond in
  checki "8 directed edges" 8 (Graph.num_edges s);
  checkb "symmetric" true (Test_util.is_symmetric s);
  checkb "original not symmetric" false (Test_util.is_symmetric diamond)

let prop_symmetrize_symmetric =
  Test_util.qtest "symmetrize yields symmetric graph" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun g ->
      Test_util.is_symmetric (Graph.symmetrize (Test_util.build g)))

(* The definition [symmetrize] must match array for array: both edge
   directions, sorted and deduplicated, self-loops dropped. *)
let symmetrize_model g =
  let el = Edge_list.create () in
  Graph.iter_edges g (fun ~src ~dst ->
      Edge_list.add el ~src ~dst;
      Edge_list.add el ~src:dst ~dst:src);
  Graph.of_edge_list ~n:(Graph.num_vertices g) (Edge_list.dedup el)

let prop_symmetrize_matches_model =
  Test_util.qtest ~count:300 "symmetrize = sorted deduplicated both-ways model"
    ~print:Test_util.print_small_graph Test_util.small_multigraph_gen (fun (n, edges) ->
      let g = Test_util.graph_of_edges ~n edges in
      let s = Graph.symmetrize g and m = symmetrize_model g in
      Graph.num_vertices s = n
      && Graph.src_array s = Graph.src_array m
      && Graph.dst_array s = Graph.dst_array m
      && List.for_all
           (fun v ->
             Graph.out_neighbors s v = Graph.out_neighbors m v
             && Test_util.in_neighbors s v = Test_util.in_neighbors m v)
           (List.init n Fun.id))

let prop_degree_sums =
  Test_util.qtest "sum out-degree = sum in-degree = m" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      let n = Graph.num_vertices g in
      let total f = Array.fold_left ( + ) 0 (Array.init n f) in
      total (Graph.out_degree g) = Graph.num_edges g
      && total (Graph.in_degree g) = Graph.num_edges g)

(* --- Union_find --- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  checki "initial sets" 6 (Union_find.count uf);
  checkb "union 0 1" true (Union_find.union uf 0 1);
  checkb "union 1 0 again" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  checki "sets" 3 (Union_find.count uf);
  checkb "same 1 2" true (Union_find.same uf 1 2);
  checkb "not same 1 4" false (Union_find.same uf 1 4)

(* --- Components --- *)

let test_weak_components () =
  let g = Test_util.graph_of_edges ~n:7 [ (0, 1); (1, 2); (3, 4); (5, 6) ] in
  let labels, count = Components.weak g in
  checki "3 components" 3 count;
  checki "label of 2" 0 labels.(2);
  checki "label of 4" 3 labels.(4);
  checki "label of 6" 5 labels.(6)

let prop_weak_labels_consistent =
  Test_util.qtest "weak labels constant along edges" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      let labels, _ = Components.weak g in
      let ok = ref true in
      Graph.iter_edges g (fun ~src ~dst -> if labels.(src) <> labels.(dst) then ok := false);
      !ok)

(* --- BFS --- *)

let test_bfs_distances () =
  (* vertex 4 is unreachable and must not count as the farthest *)
  let g = Test_util.graph_of_edges ~n:5 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (pair int int)) "farthest from 0" (3, 3) (Bfs.farthest g 0);
  Alcotest.(check (pair int int)) "farthest from 2" (3, 1) (Bfs.farthest g 2);
  Alcotest.(check (pair int int)) "isolated" (4, 0) (Bfs.farthest g 4)

let test_bfs_undirected () =
  let g = Test_util.graph_of_edges ~n:3 [ (1, 0); (2, 1) ] in
  Alcotest.(check (pair int int)) "directed: 0 has no out edge" (0, 0) (Bfs.farthest g 0);
  Alcotest.(check (pair int int)) "undirected" (2, 2) (Bfs.farthest ~undirected:true g 0)

let test_eccentricity () =
  let g = Test_util.graph_of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  checki "ecc of 0" 3 (Bfs.eccentricity g 0);
  checki "ecc of 3 (no out)" 0 (Bfs.eccentricity g 3)

(* --- Triangles --- *)

let k4 = Test_util.graph_of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]

let test_triangles_k4 () =
  checki "K4 has 4 triangles" 4 (Triangles.count k4)

let test_triangles_cycle () =
  let c5 = Test_util.graph_of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  checki "C5 triangle-free" 0 (Triangles.count c5)

let test_triangles_direction_blind () =
  let t1 = Test_util.graph_of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let t2 = Test_util.graph_of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  checki "cyclic" 1 (Triangles.count t1);
  checki "acyclic orientation" 1 (Triangles.count t2)

let test_clustering () =
  checkb "K4 clustering = 1" true (abs_float (Triangles.global_clustering k4 -. 1.0) < 1e-9)

let prop_per_vertex_sum =
  Test_util.qtest "sum per-vertex = 3 * total" ~print:Test_util.print_small_graph
    Test_util.small_graph_gen (fun sg ->
      let g = Test_util.build sg in
      let per_vertex, _ = Test_util.brute_force_triangles (Test_util.edges_of g) in
      Array.fold_left ( + ) 0 per_vertex = 3 * Triangles.count g)

(* Distinct undirected triangles and the global clustering
   coefficient by brute force over an adjacency matrix: direction,
   parallel copies and self-loops do not count. *)
let distinct_triangles (n, edges) =
  let adj = Array.make_matrix n n false in
  List.iter
    (fun (s, d) ->
      if s <> d then begin
        adj.(s).(d) <- true;
        adj.(d).(s) <- true
      end)
    edges;
  let total = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      for x = v + 1 to n - 1 do
        if adj.(u).(v) && adj.(v).(x) && adj.(u).(x) then incr total
      done
    done
  done;
  let wedges = ref 0.0 in
  for v = 0 to n - 1 do
    let d = float_of_int (Array.fold_left (fun k b -> if b then k + 1 else k) 0 adj.(v)) in
    wedges := !wedges +. (d *. (d -. 1.0) /. 2.0)
  done;
  (!total, if !wedges = 0.0 then 0.0 else 3.0 *. float_of_int !total /. !wedges)

let prop_distinct_on_multigraphs =
  Test_util.qtest ~count:300 "triangles = distinct brute force on multigraphs"
    ~print:Test_util.print_small_graph Test_util.small_multigraph_gen (fun ((n, edges) as case) ->
      let g = Test_util.graph_of_edges ~n edges in
      (Triangles.count g, Triangles.global_clustering g) = distinct_triangles case)

(* --- Diameter --- *)

let test_diameter_path () =
  let g = Test_util.graph_of_edges ~n:4 [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 3); (3, 2) ] in
  Alcotest.(check string) "path diameter" "3" (Diameter.to_string (Diameter.exact g))

let test_diameter_disconnected () =
  let g = Test_util.graph_of_edges ~n:4 [ (0, 1); (2, 3) ] in
  checkb "infinite" true (Diameter.exact g = Diameter.Infinite);
  checkb "estimate infinite too" true (Diameter.estimate g = Diameter.Infinite)

let test_diameter_estimate_lower_bound () =
  let g = Test_util.random_graph ~seed:5L ~n:60 ~m:120 in
  let g = Graph.symmetrize g in
  if Components.weak_count g = 1 then begin
    match (Diameter.exact g, Diameter.estimate ~sweeps:6 g) with
    | Diameter.Finite ex, Diameter.Finite est ->
        checkb "estimate <= exact" true (est <= ex);
        checkb "estimate at least half" true (2 * est >= ex)
    | _ -> Alcotest.fail "expected finite diameters"
  end

(* --- Graph_io --- *)

let with_file contents f =
  let path = Filename.temp_file "cutfit" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

let load_ok path = match Graph_io.load path with Ok g -> g | Error e -> Alcotest.fail e

let test_io_roundtrip () =
  let g = Test_util.random_graph ~seed:9L ~n:50 ~m:200 in
  let path = Filename.temp_file "cutfit" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save path g;
      let g2 = load_ok path in
      checki "same edge count" (Graph.num_edges g) (Graph.num_edges g2);
      let ok = ref true in
      Graph.iter_edges g (fun ~src ~dst -> if not (Graph.has_edge g2 ~src ~dst) then ok := false);
      checkb "same edges" true !ok;
      checki "size matches file" (Graph_io.size_bytes g) (Unix.stat path).Unix.st_size)

let test_io_comments_and_tabs () =
  with_file "# comment\n0\t1\n1 2\n\n 2 \t\t 0\r\n" (fun path ->
      let g = load_ok path in
      checki "3 edges" 3 (Graph.num_edges g);
      checki "3 vertices" 3 (Graph.num_vertices g))

(* Each hostile file is an [Error] naming the path, the line and the
   reason; none raises. *)
let test_io_hostile_lines () =
  List.iter
    (fun (contents, line, reason) ->
      with_file contents (fun path ->
          match Graph_io.load path with
          | Ok _ -> Alcotest.failf "%S loaded" contents
          | Error e ->
              let prefix = Printf.sprintf "%s:%d: " path line in
              checkb (Printf.sprintf "%S names path and line: %s" contents e) true
                (String.starts_with ~prefix e);
              checkb (Printf.sprintf "%S gives reason %S: %s" contents reason e) true
                (String.ends_with ~suffix:reason e)))
    [
      ("a\tb\n", 1, "vertex id \"a\" is not an integer");
      ("0 1\n1 x\n", 2, "vertex id \"x\" is not an integer");
      ("-3 2\n", 1, "vertex id -3 is negative");
      ("0 1\n0 4611686018427387900\n", 2, "needs more than Sys.max_array_length vertices");
      ("0 1 2\n", 1, "expected two vertex ids, got 3 field(s)");
      ("# only\n7\n", 2, "expected two vertex ids, got 1 field(s)");
    ];
  match Graph_io.load (Filename.concat (Filename.get_temp_dir_name ()) "cutfit-no-such-file") with
  | Ok _ -> Alcotest.fail "a missing file loaded"
  | Error _ -> ()

(* A saved graph cut short at a random byte, or with one byte replaced,
   loads as [Ok] or [Error]; it never raises. *)
let prop_io_corrupt_never_raises =
  Test_util.qtest ~count:200 "io: truncated or corrupted file is Ok or Error"
    ~print:(fun ((n, edges), cut, byte) ->
      Printf.sprintf "%s cut=%d byte=%d" (Test_util.print_small_graph (n, edges)) cut byte)
    QCheck2.Gen.(triple Test_util.small_graph_gen nat (int_range (-1) 255))
    (fun (case, cut, byte) ->
      let g = Test_util.build case in
      let path = Filename.temp_file "cutfit" ".edges" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Graph_io.save path g;
          let text = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length text in
          let text =
            if len = 0 then text
            else if byte < 0 then String.sub text 0 (cut mod len)
            else String.mapi (fun i c -> if i = cut mod len then Char.chr byte else c) text
          in
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          match Graph_io.load path with Ok _ | Error _ -> true))

(* --- Characterize --- *)

let test_characterize_small () =
  let g = Test_util.graph_of_edges ~n:4 [ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ] in
  let c = Characterize.compute ~exact_diameter:true g in
  checki "vertices" 4 c.Characterize.vertices;
  checki "edges" 6 c.Characterize.edges;
  checkb "fully symmetric" true (abs_float (c.Characterize.symmetry_pct -. 100.0) < 1e-9);
  checki "one triangle" 1 c.Characterize.triangles;
  checki "two components (vertex 3 isolated)" 2 c.Characterize.components;
  checkb "infinite diameter" true (c.Characterize.diameter = Diameter.Infinite);
  checkb "zero-in counts isolated vertex" true (abs_float (c.Characterize.zero_in_pct -. 25.0) < 1e-9)

let test_symmetry_partial () =
  let g = Test_util.graph_of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  let s = (Characterize.compute g).Characterize.symmetry_pct in
  checkb "2 of 3 reciprocated" true (abs_float (s -. (200.0 /. 3.0)) < 1e-9)

(* Adjacency against a List.sort oracle: multi-edges and self-loops
   kept, and a hub whose out- and in-buckets exceed the insertion-sort
   threshold. *)
let hub_graph_gen =
  let open QCheck2.Gen in
  int_range 2 30 >>= fun n ->
  let edge = pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
  list_size (int_range 0 120) edge >>= fun edges ->
  int_range 0 (n - 1) >>= fun hub ->
  list_size (int_range 25 60) (int_range 0 (n - 1)) >>= fun outs ->
  list_size (int_range 25 60) (int_range 0 (n - 1)) >>= fun ins ->
  shuffle_l (edges @ List.map (fun d -> (hub, d)) outs @ List.map (fun s -> (s, hub)) ins)
  >|= fun edges -> (n, edges)

let prop_adjacency_sorted_oracle =
  Test_util.qtest ~count:200 "adjacency = List.sort oracle" ~print:Test_util.print_small_graph
    hub_graph_gen (fun (n, edges) ->
      let g = Test_util.graph_of_edges ~n edges in
      let bucket key value v =
        List.filter (fun e -> key e = v) edges
        |> List.map value |> List.sort compare |> Array.of_list
      in
      List.for_all
        (fun v ->
          Graph.out_neighbors g v = bucket fst snd v && Test_util.in_neighbors g v = bucket snd fst v)
        (List.init n Fun.id))

(* [splice] against [create] on the same edge arrays, array for array.
   The graphs are [hub_graph_gen]'s (multi-edges, self-loops, buckets
   past the insertion-sort threshold); the delta is empty, deletes
   every edge, or deletes a random subset (often one copy of a
   duplicate), with fresh inserts and copies of existing edges, some
   of them at the hub. *)
let splice_case_gen =
  let open QCheck2.Gen in
  hub_graph_gen >>= fun (n, edges) ->
  let m = List.length edges in
  int_range 0 2 >>= fun mode ->
  list_repeat m (float_bound_exclusive 1.0) >>= fun coins ->
  let vertex = int_range 0 (n - 1) in
  list_size (int_range 0 40) (pair vertex vertex) >>= fun fresh ->
  list_size (int_range 0 30) (int_range 0 (m - 1)) >|= fun copies ->
  let deletes =
    match mode with
    | 0 -> []
    | 1 -> List.init m Fun.id
    | _ -> List.filteri (fun e _ -> List.nth coins e < 0.2) (List.init m Fun.id)
  in
  let inserts = if mode = 0 then [] else fresh @ List.map (List.nth edges) copies in
  (n, edges, deletes, inserts)

let print_splice_case (n, edges, deletes, inserts) =
  Printf.sprintf "%s del=[%s] ins=[%s]"
    (Test_util.print_small_graph (n, edges))
    (String.concat ";" (List.map string_of_int deletes))
    (String.concat ";" (List.map (fun (s, d) -> Printf.sprintf "(%d,%d)" s d) inserts))

(* [g]'s edges less [deletes], in build order, then [inserts]. *)
let after_delta g deletes inserts =
  let edges =
    List.init (Graph.num_edges g) (fun e -> (e, (Graph.edge_src g e, Graph.edge_dst g e)))
  in
  let kept = List.filter_map (fun (e, x) -> if List.mem e deletes then None else Some x) edges in
  let all = kept @ inserts in
  (Array.of_list (List.map fst all), Array.of_list (List.map snd all))

let same_graph a b =
  Graph.src_array a = Graph.src_array b
  && Graph.dst_array a = Graph.dst_array b
  && Graph.out_csr a = Graph.out_csr b
  && Graph.in_csr a = Graph.in_csr b

let prop_splice_equals_create =
  Test_util.qtest ~count:300 "splice = create on the same edge arrays" ~print:print_splice_case
    splice_case_gen (fun (n, edges, deletes, inserts) ->
      let g = Test_util.graph_of_edges ~n edges in
      let src, dst = after_delta g deletes inserts in
      same_graph
        (Graph.splice g ~deletes:(Array.of_list deletes) ~src ~dst)
        (Graph.create ~n ~src:(Array.copy src) ~dst:(Array.copy dst)))

let test_splice_one_copy () =
  (* three copies of 0 -> 1; deleting the middle one leaves two *)
  let g = Test_util.graph_of_edges ~n:3 [ (0, 1); (0, 1); (2, 0); (0, 1) ] in
  let src, dst = after_delta g [ 1 ] [ (2, 1) ] in
  let s = Graph.splice g ~deletes:[| 1 |] ~src ~dst in
  checki "two copies left" 2 (Graph.edge_multiplicity s ~src:0 ~dst:1);
  checkb "equals create" true (same_graph s (Graph.create ~n:3 ~src ~dst));
  let rejects what deletes =
    match Graph.splice g ~deletes ~src ~dst with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "splice should reject %s" what
  in
  rejects "unsorted deletes" [| 2; 1 |];
  rejects "a repeated delete" [| 1; 1 |];
  rejects "an out-of-range delete" [| 4 |]

(* --- Graph_io --- *)

let log10_digits v = if v = 0 then 1 else int_of_float (log10 (float_of_int v)) + 1

(* The saved size of the one self-loop [v -> v]: two ids, a space and
   a newline. *)
let self_loop_bytes v = Graph_io.size_bytes (Test_util.graph_of_edges ~n:(v + 1) [ (v, v) ])

let test_digits_at_powers_of_ten () =
  for k = 0 to 6 do
    let p = int_of_float (10.0 ** float_of_int k) in
    List.iter
      (fun v ->
        if v >= 0 then begin
          let name = string_of_int v in
          checki (name ^ " width") ((2 * String.length name) + 2) (self_loop_bytes v);
          checki (name ^ " agrees with log10") ((2 * log10_digits v) + 2) (self_loop_bytes v)
        end)
      [ p - 1; p; p + 1 ]
  done

let prop_digits_sample =
  Test_util.qtest ~count:500 "digits = log10 digits" ~print:string_of_int
    QCheck2.Gen.(oneof [ int_range 0 1000; int_range 0 200_000 ])
    (fun v -> self_loop_bytes v = (2 * log10_digits v) + 2)

(* [size_bytes] sums one degree range per decimal width; the oracle is
   the per-edge fold it replaced. Vertex counts sit at and around
   powers of ten, and edges favour the ids at 10^k - 1, 10^k and
   10^k + 1, so every width boundary is crossed by real degrees; with
   few edges most vertices stay isolated, and n = 0 is drawn too. *)
let size_bytes_fold g =
  let total = ref 0 in
  Graph.iter_edges g (fun ~src ~dst ->
      total := !total + String.length (string_of_int src) + String.length (string_of_int dst) + 2);
  !total

let width_boundary_graph_gen =
  let open QCheck2.Gen in
  oneofl [ 0; 1; 2; 9; 10; 11; 99; 100; 101; 1000; 1001; 10_001; 100_002 ] >>= fun n ->
  let near_powers =
    List.concat_map (fun p -> [ p - 1; p; p + 1 ]) [ 1; 10; 100; 1000; 10_000; 100_000 ]
    |> List.filter (fun v -> v >= 0 && v < n)
  in
  let any = int_range 0 (max 0 (n - 1)) in
  let id = if near_powers = [] then any else oneof [ oneofl near_powers; any ] in
  (if n = 0 then pure [] else list_size (int_range 0 40) (pair id id)) >|= fun edges -> (n, edges)

let prop_size_bytes_oracle =
  Test_util.qtest ~count:300 "size_bytes = per-edge fold" ~print:Test_util.print_small_graph
    width_boundary_graph_gen (fun (n, edges) ->
      let g = Test_util.graph_of_edges ~n edges in
      Graph_io.size_bytes g = size_bytes_fold g)

let suite =
  [
    Alcotest.test_case "edge_list basic" `Quick test_edge_list_basic;
    Alcotest.test_case "edge_list growth" `Quick test_edge_list_growth;
    Alcotest.test_case "edge_list dedup" `Quick test_edge_list_dedup;
    Alcotest.test_case "graph degrees" `Quick test_graph_degrees;
    Alcotest.test_case "neighbors sorted" `Quick test_graph_neighbors_sorted;
    Alcotest.test_case "has_edge" `Quick test_graph_has_edge;
    Alcotest.test_case "bad input rejected" `Quick test_graph_rejects_bad_input;
    Alcotest.test_case "graph symmetrize" `Quick test_graph_symmetrize;
    prop_symmetrize_symmetric;
    prop_symmetrize_matches_model;
    prop_degree_sums;
    Alcotest.test_case "union_find" `Quick test_union_find;
    Alcotest.test_case "weak components" `Quick test_weak_components;
    prop_weak_labels_consistent;
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "bfs undirected" `Quick test_bfs_undirected;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "diameter path" `Quick test_diameter_path;
    Alcotest.test_case "diameter disconnected" `Quick test_diameter_disconnected;
    Alcotest.test_case "diameter estimate bound" `Quick test_diameter_estimate_lower_bound;
    Alcotest.test_case "characterize small" `Quick test_characterize_small;
    Alcotest.test_case "partial symmetry" `Quick test_symmetry_partial;
    prop_adjacency_sorted_oracle;
    Alcotest.test_case "triangles K4" `Quick test_triangles_k4;
    Alcotest.test_case "triangles C5" `Quick test_triangles_cycle;
    Alcotest.test_case "triangles direction-blind" `Quick test_triangles_direction_blind;
    Alcotest.test_case "clustering" `Quick test_clustering;
    prop_per_vertex_sum;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "io comments and tabs" `Quick test_io_comments_and_tabs;
    Alcotest.test_case "io hostile lines" `Quick test_io_hostile_lines;
    prop_io_corrupt_never_raises;
    Alcotest.test_case "digits at powers of ten" `Quick test_digits_at_powers_of_ten;
    prop_digits_sample;
    prop_size_bytes_oracle;
    prop_distinct_on_multigraphs;
    prop_splice_equals_create;
    Alcotest.test_case "splice deletes one copy" `Quick test_splice_one_copy;
  ]
