module Splitmix64 = Cutfit_prng.Splitmix64
module Xoshiro = Cutfit_prng.Xoshiro
module Dist = Cutfit_prng.Dist

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let test_splitmix_deterministic () =
  let a = Splitmix64.create 42L and b = Splitmix64.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix64.next_int64 a) (Splitmix64.next_int64 b)
  done

let test_splitmix_distinct_seeds () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  checkb "different streams" true (Splitmix64.next_int64 a <> Splitmix64.next_int64 b)

let test_mix64_injective_sample () =
  (* mix64 is a bijection; sampled values must not collide. *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 10_000 do
    let h = Splitmix64.mix64 (Int64.of_int i) in
    checkb "no collision" false (Hashtbl.mem seen h);
    Hashtbl.add seen h ()
  done

let test_xoshiro_deterministic () =
  let a = Xoshiro.create 42L and b = Xoshiro.create 42L in
  for _ = 1 to 100 do
    check (Alcotest.float 0.0) "same stream" (Xoshiro.next_float a) (Xoshiro.next_float b)
  done

let test_bounds_rejected () =
  let r = Xoshiro.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Xoshiro.next_int: bound <= 0") (fun () ->
      ignore (Xoshiro.next_int r 0));
  let s = Splitmix64.create 1L in
  Alcotest.check_raises "bound -1" (Invalid_argument "Splitmix64.next_int: bound <= 0") (fun () ->
      ignore (Splitmix64.next_int s (-1)))

let test_uniformity_rough () =
  let r = Xoshiro.create 3L in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let k = Xoshiro.next_int r 10 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      checkb "bucket within 10% of expectation" true
        (abs (c - (trials / 10)) < trials / 10))
    counts

let test_alias_frequencies () =
  let alias = Dist.Alias.create [| 1.0; 2.0; 7.0 |] in
  let r = Xoshiro.create 17L in
  let counts = Array.make 3 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let k = Dist.Alias.sample alias r in
    counts.(k) <- counts.(k) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int trials in
  checkb "p0 ~ 0.1" true (abs_float (frac 0 -. 0.1) < 0.01);
  checkb "p1 ~ 0.2" true (abs_float (frac 1 -. 0.2) < 0.015);
  checkb "p2 ~ 0.7" true (abs_float (frac 2 -. 0.7) < 0.015)

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weights") (fun () ->
      ignore (Dist.Alias.create [||]));
  Alcotest.check_raises "zero sum" (Invalid_argument "Alias.create: non-positive total weight")
    (fun () -> ignore (Dist.Alias.create [| 0.0; 0.0 |]))

let test_power_law_weights_shape () =
  let w = Dist.power_law_weights ~n:1000 ~alpha:2.5 ~min_weight:1.0 in
  checkb "descending" true (w.(0) > w.(1) && w.(1) > w.(500));
  checkb "min weight respected" true (w.(999) >= 1.0 -. 1e-9);
  (* alpha=2.5 -> w_i = (n/(i+1))^(2/3). *)
  let expected = (1000.0 /. 1.0) ** (1.0 /. 1.5) in
  checkb "head magnitude" true (abs_float (w.(0) -. expected) < 1e-6)

let test_sample_distinct () =
  let r = Xoshiro.create 31L in
  let s = Dist.sample_distinct r ~n:50 ~k:20 in
  check Alcotest.int "size" 20 (Array.length s);
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun v ->
      checkb "in range" true (v >= 0 && v < 50);
      checkb "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.add tbl v ())
    s

(* [sample_distinct] with [k = n] is a Fisher-Yates shuffle of every id. *)
let test_shuffle_is_permutation () =
  let r = Xoshiro.create 37L in
  let a = Dist.sample_distinct r ~n:100 ~k:100 in
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted

let test_geometric_mean () =
  let r = Xoshiro.create 41L in
  let total = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    total := !total + Dist.geometric r ~p:0.5
  done;
  let mean = float_of_int !total /. float_of_int trials in
  checkb "mean ~ (1-p)/p = 1" true (abs_float (mean -. 1.0) < 0.05)

let test_exponential_positive () =
  let r = Xoshiro.create 43L in
  for _ = 1 to 1000 do
    checkb "positive" true (Dist.exponential r ~rate:2.0 >= 0.0)
  done

let prop_float_in_unit =
  Test_util.qtest "next_float in [0,1)" ~print:Int64.to_string
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      let r = Xoshiro.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let f = Xoshiro.next_float r in
        if f < 0.0 || f >= 1.0 then ok := false
      done;
      !ok)

let prop_next_int_in_range =
  Test_util.qtest "next_int in [0,bound)" ~print:(fun (s, b) -> Printf.sprintf "seed=%d bound=%d" s b)
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Xoshiro.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Xoshiro.next_int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix distinct seeds" `Quick test_splitmix_distinct_seeds;
    Alcotest.test_case "mix64 injective on sample" `Quick test_mix64_injective_sample;
    Alcotest.test_case "xoshiro deterministic" `Quick test_xoshiro_deterministic;
    Alcotest.test_case "bad bounds rejected" `Quick test_bounds_rejected;
    Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
    Alcotest.test_case "alias frequencies" `Quick test_alias_frequencies;
    Alcotest.test_case "alias bad weights" `Quick test_alias_rejects_bad_weights;
    Alcotest.test_case "power-law weights shape" `Quick test_power_law_weights_shape;
    Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    prop_float_in_unit;
    prop_next_int_in_range;
  ]
