module Advisor = Cutfit.Advisor
module Datasets = Cutfit_gen.Datasets
module Xoshiro = Cutfit_prng.Xoshiro
module Dist = Cutfit_prng.Dist

type t = {
  id : int;
  arrival_s : float;
  algorithm : Advisor.algorithm;
  dataset : string;
  num_partitions : int;
  tenant : string;
}

let default_tenant = "default"

type mix = {
  name : string;
  description : string;
  algorithms : (Advisor.algorithm * float) list;
  datasets : (string * float) list;
  partition_counts : (int * float) list;
  mean_interarrival_s : float;
}

let mixes =
  [
    {
      name = "uniform";
      description = "all four algorithms over three analogues at two granularities";
      algorithms =
        [
          (Advisor.Pagerank, 1.0);
          (Advisor.Connected_components, 1.0);
          (Advisor.Triangle_count, 1.0);
          (Advisor.Shortest_paths, 1.0);
        ];
      datasets = [ ("youtube", 2.0); ("roadnet_pa", 2.0); ("pocek", 1.0) ];
      partition_counts = [ (64, 1.0); (128, 1.0) ];
      mean_interarrival_s = 0.4;
    };
    {
      name = "reuse-heavy";
      description =
        "edge-dominated algorithms hammering two graphs at one granularity (high partitioning \
         reuse)";
      algorithms =
        [
          (Advisor.Pagerank, 3.0); (Advisor.Connected_components, 2.0); (Advisor.Shortest_paths, 1.0);
        ];
      datasets = [ ("youtube", 3.0); ("roadnet_pa", 1.0) ];
      partition_counts = [ (128, 1.0) ];
      mean_interarrival_s = 0.3;
    };
    {
      name = "churn";
      description = "all five small analogues at three granularities (low reuse, stresses eviction)";
      algorithms =
        [
          (Advisor.Pagerank, 1.0);
          (Advisor.Connected_components, 1.0);
          (Advisor.Triangle_count, 1.0);
          (Advisor.Shortest_paths, 1.0);
        ];
      datasets =
        [
          ("youtube", 1.0); ("roadnet_pa", 1.0); ("roadnet_tx", 1.0); ("pocek", 1.0);
          ("roadnet_ca", 1.0);
        ];
      partition_counts = [ (64, 1.0); (128, 1.0); (256, 1.0) ];
      mean_interarrival_s = 0.5;
    };
  ]

let find_mix name = List.find_opt (fun m -> String.equal m.name name) mixes
let mix_names = List.map (fun m -> m.name) mixes

(* Weighted draw with a fixed traversal order: cumulative weights over
   the list as written, one uniform per draw. *)
let weighted_pick what rng pairs =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if not (total > 0.0) then
    invalid_arg (Printf.sprintf "Job.generate: %s weights must have a positive sum" what);
  let u = Xoshiro.next_float rng *. total in
  let rec go acc = function
    | [] -> invalid_arg (Printf.sprintf "Job.generate: empty %s dimension" what)
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if u < acc +. w then x else go (acc +. w) rest
  in
  go 0.0 pairs

let validate mix =
  if not (mix.mean_interarrival_s > 0.0) then
    invalid_arg "Job.generate: mean inter-arrival must be positive";
  List.iter
    (fun (d, _) ->
      match List.find_opt (String.equal d) Datasets.names with
      | Some _ -> ()
      | None -> invalid_arg (Printf.sprintf "Job.generate: unknown dataset %S" d))
    mix.datasets;
  List.iter
    (fun (n, _) ->
      if n <= 0 then invalid_arg "Job.generate: partition counts must be positive")
    mix.partition_counts

let generate ~seed ~jobs ?(tenants = []) mix =
  if jobs < 0 then invalid_arg "Job.generate: negative job count";
  validate mix;
  List.iter
    (fun (t, _) ->
      if String.length t = 0 || String.contains t '/' then
        invalid_arg (Printf.sprintf "Job.generate: bad tenant name %S" t))
    tenants;
  let rng = Xoshiro.create seed in
  let rate = 1.0 /. mix.mean_interarrival_s in
  let now = ref 0.0 in
  List.init jobs (fun id ->
      now := !now +. Dist.exponential rng ~rate;
      let algorithm = weighted_pick "algorithm" rng mix.algorithms in
      let dataset = weighted_pick "dataset" rng mix.datasets in
      let num_partitions = weighted_pick "partition-count" rng mix.partition_counts in
      (* The tenant draw is appended LAST, so single-tenant streams are
         byte-identical to streams generated before tenancy existed. *)
      let tenant =
        match tenants with [] -> default_tenant | ts -> weighted_pick "tenant" rng ts
      in
      { id; arrival_s = !now; algorithm; dataset; num_partitions; tenant })
