module Splitmix64 = Cutfit_prng.Splitmix64
module Advisor = Cutfit.Advisor
module Faults = Cutfit_bsp.Faults
module Elastic = Cutfit_bsp.Elastic
module Mutation = Cutfit_dynamic.Mutation
module Engine = Cutfit_workload.Engine

(* Every scenario choice is a keyed draw ([Splitmix64.draw]) per
   (campaign seed, scenario index, slot), the same keying discipline as
   Faults/Elastic/Mutation: scenario [index] of a campaign is a pure
   function of (seed, index), never of how many scenarios were
   generated before it — which is what makes campaigns bit-reproducible
   and resumable from any index. Slots must stay below this stride or
   two scenarios' draws collide. *)
let stride = 64

let datasets = [| "roadnet_pa"; "youtube"; "roadnet_tx" |]
let algos = [| Advisor.Pagerank; Advisor.Connected_components; Advisor.Triangle_count; Advisor.Shortest_paths |]
let clusters = [| "i"; "ii" |]
let mixes = [| "uniform"; "reuse-heavy"; "churn" |]

let scenario ~seed ~index =
  if index < 0 then invalid_arg "Gen.scenario: index < 0";
  let d slot k = Splitmix64.draw ~seed ~salt:((index * stride) + slot) ~k in
  let chance slot p = Splitmix64.unit_float (d slot 0) < p in
  let pick slot arr = arr.(Splitmix64.draw_mod (d slot 1) (Array.length arr)) in
  let int_in slot lo hi = lo + Splitmix64.draw_mod (d slot 2) (hi - lo + 1) in
  let sc_seed = 1 + Splitmix64.draw_mod (d 0 3) 1_000_000 in
  let faults =
    if not (chance 1 0.6) then None
    else begin
      let n = int_in 2 1 3 in
      let item i =
        let s = 8 + (4 * i) in
        let step = int_in s 1 6 in
        let executor = if chance (s + 1) 0.4 then Some (int_in (s + 1) 0 3) else None in
        match int_in (s + 2) 0 4 with
        | 0 -> Faults.Crash { step; executor }
        | 1 ->
            Faults.Straggler
              {
                from_step = step;
                to_step = step + int_in (s + 3) 0 2;
                executor;
                factor = pick (s + 3) [| 2.0; 3.0; 4.0; 8.0 |];
              }
        | 2 ->
            Faults.Net
              {
                from_step = step;
                to_step = step + int_in (s + 3) 0 2;
                factor = pick (s + 3) [| 0.1; 0.25; 0.5 |];
              }
        | 3 -> Faults.Loss { step; executor; retries = int_in (s + 3) 1 3 }
        | _ -> Faults.Rand { rate = pick (s + 3) [| 0.05; 0.1; 0.2 |] }
      in
      let items = List.init n item in
      let max_failures = int_in 3 1 3 in
      let mode = if chance 4 0.3 then Faults.Lineage else Faults.Rollback in
      Some { Faults.items; seed = sc_seed; max_failures; mode }
    end
  in
  let elastic =
    if not (chance 24 0.5) then None
    else begin
      let n = int_in 25 1 2 in
      let item i =
        let s = 26 + (3 * i) in
        let step = int_in s 2 10 in
        match int_in (s + 1) 0 2 with
        | 0 -> Elastic.Join { step; count = int_in (s + 2) 1 2 }
        | 1 -> Elastic.Leave { step; count = int_in (s + 2) 1 2 }
        | _ -> Elastic.Preempt { step; retries = int_in (s + 2) 1 3 }
      in
      Some { Elastic.items = List.init n item; seed = sc_seed }
    end
  in
  let mutations =
    if not (chance 33 0.5) then None
    else begin
      let n = int_in 34 1 2 in
      let item i =
        let s = 35 + (3 * i) in
        let from_batch = int_in s 1 3 in
        {
          Mutation.kind = (if chance (s + 1) 0.7 then Mutation.Ins else Mutation.Del);
          from_batch;
          to_batch = from_batch + int_in (s + 1) 0 1;
          edges = pick (s + 2) [| 16; 32; 64 |];
        }
      in
      Some { Mutation.items = List.init n item; seed = sc_seed }
    end
  in
  let queue_bound = if chance 42 0.35 then Some (int_in 42 2 6) else None in
  let overload =
    {
      Scenario.queue_bound;
      shed =
        (match queue_bound with
        | Some _ when chance 43 0.5 -> Engine.Drop_oldest
        | _ -> Engine.Reject);
      deadline =
        (if not (chance 44 0.3) then None
         else if chance 45 0.5 then Some (Engine.Factor (pick 45 [| 2.0; 4.0; 6.0 |]))
         else Some (Engine.Absolute (pick 45 [| 30.0; 60.0; 120.0 |])));
      breaker_k = (if chance 46 0.3 then Some (int_in 46 1 3) else None);
      breaker_cooldown_s = (if chance 47 0.3 then pick 47 [| 30.0; 120.0 |] else 60.0);
      backpressure = (if chance 48 0.3 then Some (int_in 48 1 4) else None);
    }
  in
  let tenancy =
    if not (chance 50 0.4) then Scenario.no_tenancy
    else
      {
        Scenario.tenants =
          [ ("acme", pick 51 [| 1.0; 2.0 |]); ("beta", pick 52 [| 1.0; 2.0 |]) ];
        fairness = chance 53 0.7;
        quota = (if chance 54 0.4 then Some (int_in 54 2 4) else None);
      }
  in
  {
    Scenario.seed = sc_seed;
    algo = pick 5 algos;
    dataset = pick 6 datasets;
    cluster = pick 7 clusters;
    jobs = int_in 20 4 10;
    mix = pick 21 mixes;
    slots = int_in 22 1 3;
    policy = (if chance 23 0.5 then Engine.Sjf else Engine.Fifo);
    faults;
    checkpoint_every = (if chance 40 0.5 then Some (int_in 40 1 4) else None);
    speculate = (if chance 41 0.3 then Some (pick 41 [| 1.5; 2.0; 3.0 |]) else None);
    elastic;
    hetero = chance 49 0.3;
    mutations;
    mutate_every =
      (match mutations with None -> Scenario.default.Scenario.mutate_every | Some _ -> int_in 38 2 4);
    mutation_mode =
      (match mutations with
      | None -> Engine.Priced
      | Some _ -> pick 39 [| Engine.Priced; Engine.Force_refresh; Engine.Force_rebuild |]);
    overload;
    tenancy;
    domains =
      (if not (chance 55 0.35) then [] else if chance 56 0.5 then [ 2 ] else [ 1; 2 ]);
    inject = None;
  }
