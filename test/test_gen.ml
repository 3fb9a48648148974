module Graph = Cutfit_graph.Graph
module Components = Cutfit_graph.Components
module Characterize = Cutfit_graph.Characterize
module Grid = Cutfit_gen.Grid
module Social = Cutfit_gen.Social
module Datasets = Cutfit_gen.Datasets

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_grid = { Grid.default with Grid.width = 30; height = 30; seed = 3L }

let test_grid_symmetric () =
  let g = Grid.generate small_grid in
  checkb "symmetric" true (Test_util.is_symmetric g)

let test_grid_no_isolated () =
  let g = Grid.generate small_grid in
  let ok = ref true in
  for v = 0 to Graph.num_vertices g - 1 do
    if Graph.out_degree g v = 0 then ok := false
  done;
  checkb "no zero-degree vertices" true !ok

let test_grid_deterministic () =
  let g1 = Grid.generate small_grid and g2 = Grid.generate small_grid in
  checki "same edges" (Graph.num_edges g1) (Graph.num_edges g2);
  Alcotest.(check (array int)) "same srcs" (Graph.src_array g1) (Graph.src_array g2)

let test_grid_seed_changes_structure () =
  let g1 = Grid.generate small_grid in
  let g2 = Grid.generate { small_grid with Grid.seed = 4L } in
  checkb "different structure" true
    (Graph.num_edges g1 <> Graph.num_edges g2 || Graph.src_array g1 <> Graph.src_array g2)

let test_grid_degree_bounded () =
  let g = Grid.generate small_grid in
  let max_deg = ref 0 in
  for v = 0 to Graph.num_vertices g - 1 do
    max_deg := max !max_deg (Graph.out_degree g v)
  done;
  (* 4 rook + 2 diagonal incidences is the lattice maximum. *)
  checkb "degree <= 6" true (!max_deg <= 6)

let test_grid_rejects_empty () =
  Alcotest.check_raises "empty lattice" (Invalid_argument "Grid.generate: empty lattice")
    (fun () -> ignore (Grid.generate { small_grid with Grid.width = 0 }))

let small_social =
  { Social.default with Social.vertices = 3_000; edges = 20_000; seed = 21L }

let test_social_undirected_symmetric () =
  let g = Social.generate small_social in
  checkb "symmetric" true (Test_util.is_symmetric g);
  checkb "one component" true (Components.weak_count g = 1)

let test_social_deterministic () =
  let g1 = Social.generate small_social and g2 = Social.generate small_social in
  Alcotest.(check (array int)) "same srcs" (Graph.src_array g1) (Graph.src_array g2)

let directed_params =
  {
    Social.default with
    Social.vertices = 5_000;
    edges = 40_000;
    symmetry = 0.5;
    zero_in_frac = 0.1;
    zero_out_frac = 0.2;
    islands = 4;
    seed = 22L;
  }

let test_social_symmetry_target () =
  let g = Social.generate directed_params in
  let s = (Characterize.compute g).Characterize.symmetry_pct /. 100.0 in
  checkb "symmetry within 6 points of target" true (abs_float (s -. 0.5) < 0.06)

let test_social_leaf_fractions () =
  let g = Social.generate directed_params in
  let n = Graph.num_vertices g in
  let zi = ref 0 and zo = ref 0 in
  for v = 0 to n - 1 do
    if Graph.in_degree g v = 0 then incr zi;
    if Graph.out_degree g v = 0 then incr zo
  done;
  let fzi = float_of_int !zi /. float_of_int n and fzo = float_of_int !zo /. float_of_int n in
  checkb "zero-in ~10%" true (abs_float (fzi -. 0.1) < 0.03);
  checkb "zero-out ~20%" true (abs_float (fzo -. 0.2) < 0.03)

let test_social_components () =
  let g = Social.generate directed_params in
  checki "1 + islands components" (1 + 4) (Components.weak_count g)

let test_social_edge_budget () =
  let g = Social.generate directed_params in
  let m = Graph.num_edges g in
  checkb "within 20% of target" true
    (float_of_int (abs (m - 40_000)) /. 40_000.0 < 0.20)

let test_social_superstar () =
  let boosted =
    Social.generate { small_social with Social.superstar_share = 0.3; symmetry = 0.0; seed = 23L }
  in
  let plain = Social.generate { small_social with Social.symmetry = 0.0; seed = 23L } in
  checkb "hub dominates when boosted" true
    (Graph.out_degree boosted 0 > 2 * Graph.out_degree plain 0)

let test_social_weight_cap () =
  let capped =
    Social.generate { small_social with Social.weight_cap_ratio = 5.0; seed = 24L }
  in
  let n = Graph.num_vertices capped in
  let m = Graph.num_edges capped in
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    max_deg := max !max_deg (Graph.out_degree capped v)
  done;
  (* Expected max degree ~ 5x mean; allow generous sampling noise. *)
  checkb "capped tail" true (!max_deg < 15 * m / n)

let test_social_validation () =
  Alcotest.check_raises "undirected with leaves"
    (Invalid_argument "Social.generate: an undirected graph cannot have zero-degree leaves")
    (fun () -> ignore (Social.generate { Social.default with Social.zero_in_frac = 0.1 }));
  Alcotest.check_raises "no core"
    (Invalid_argument "Social.generate: leaf fractions/islands leave no core") (fun () ->
      ignore
        (Social.generate
           { Social.default with Social.symmetry = 0.0; zero_in_frac = 0.6; zero_out_frac = 0.5 }))

let test_datasets_registry () =
  checki "nine datasets" 9 (List.length Datasets.all);
  checkb "find works" true ((Datasets.find "orkut").Datasets.display = "Orkut");
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Datasets.find "nope"))

let test_datasets_cache () =
  Datasets.clear_cache ();
  let spec = Datasets.find "youtube" in
  let g1 = Datasets.generate spec in
  let g2 = Datasets.generate spec in
  checkb "memoized (physically equal)" true (g1 == g2)

let test_dataset_shapes () =
  (* Spot-check the structural contract of two analogues. *)
  let yt = Datasets.generate (Datasets.find "youtube") in
  checkb "youtube symmetric" true (Test_util.is_symmetric yt);
  checki "youtube connected" 1 (Components.weak_count yt);
  let pa = Datasets.generate (Datasets.find "roadnet_pa") in
  checkb "roadnet symmetric" true (Test_util.is_symmetric pa);
  checkb "roadnet many components" true (Components.weak_count pa > 1)

let suite =
  [
    Alcotest.test_case "grid symmetric" `Quick test_grid_symmetric;
    Alcotest.test_case "grid no isolated" `Quick test_grid_no_isolated;
    Alcotest.test_case "grid deterministic" `Quick test_grid_deterministic;
    Alcotest.test_case "grid seed matters" `Quick test_grid_seed_changes_structure;
    Alcotest.test_case "grid degree bounded" `Quick test_grid_degree_bounded;
    Alcotest.test_case "grid rejects empty" `Quick test_grid_rejects_empty;
    Alcotest.test_case "social undirected symmetric" `Quick test_social_undirected_symmetric;
    Alcotest.test_case "social deterministic" `Quick test_social_deterministic;
    Alcotest.test_case "social symmetry target" `Quick test_social_symmetry_target;
    Alcotest.test_case "social leaf fractions" `Quick test_social_leaf_fractions;
    Alcotest.test_case "social components" `Quick test_social_components;
    Alcotest.test_case "social edge budget" `Quick test_social_edge_budget;
    Alcotest.test_case "social superstar" `Quick test_social_superstar;
    Alcotest.test_case "social weight cap" `Quick test_social_weight_cap;
    Alcotest.test_case "social validation" `Quick test_social_validation;
    Alcotest.test_case "datasets registry" `Quick test_datasets_registry;
    Alcotest.test_case "datasets cache" `Quick test_datasets_cache;
    Alcotest.test_case "dataset shapes" `Quick test_dataset_shapes;
  ]
