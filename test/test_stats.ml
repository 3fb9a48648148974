module Summary = Cutfit_stats.Summary
module Correlation = Cutfit_stats.Correlation
module Cdf = Cutfit_stats.Cdf
module Histogram = Cutfit_stats.Histogram

let checkb = Alcotest.(check bool)
let checkf msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

let test_mean_stdev () =
  (* population stdev: the mean is 2, the variance 2/3 *)
  checkf "stdev" (sqrt (2.0 /. 3.0)) (Summary.stdev [| 1.0; 2.0; 3.0 |]);
  checkf "stdev of one sample" 0.0 (Summary.stdev [| 7.0 |]);
  checkf "stdev of constant" 0.0 (Summary.stdev [| 5.0; 5.0; 5.0 |])

let test_quantiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  checkf "median interpolated" 2.5 (Summary.median xs);
  checkf "q0" 1.0 (Summary.quantile xs 0.0);
  checkf "q1" 4.0 (Summary.quantile xs 1.0);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.quantile: empty sample") (fun () ->
      ignore (Summary.quantile [||] 0.5))

let test_pearson_known () =
  checkf "perfect" 1.0 (Correlation.pearson [| 1.0; 2.0; 3.0 |] [| 10.0; 20.0; 30.0 |]);
  checkf "perfect negative" (-1.0) (Correlation.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |]);
  checkf "constant gives 0" 0.0 (Correlation.pearson [| 1.0; 2.0; 3.0 |] [| 7.0; 7.0; 7.0 |])

let test_pearson_errors () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Correlation: length mismatch") (fun () ->
      ignore (Correlation.pearson [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "short" (Invalid_argument "Correlation: need at least 2 points") (fun () ->
      ignore (Correlation.pearson [| 1.0 |] [| 1.0 |]))

let test_cdf () =
  let c = Cdf.of_samples [| 1.0; 2.0; 2.0; 4.0 |] in
  checkf "below support" 0.0 (Cdf.eval c 0.5);
  checkf "at 2" 0.75 (Cdf.eval c 2.0);
  checkf "above" 1.0 (Cdf.eval c 10.0)

let test_log2_bins () =
  let bins = Histogram.log2_bins [| 0; 1; 1; 2; 3; 4; 8; 9 |] in
  let find lo = List.find (fun b -> b.Histogram.lo = lo) bins in
  Alcotest.(check int) "zeros" 1 (find 0).Histogram.count;
  Alcotest.(check int) "[1,2)" 2 (find 1).Histogram.count;
  Alcotest.(check int) "[2,4)" 2 (find 2).Histogram.count;
  Alcotest.(check int) "[4,8)" 1 (find 4).Histogram.count;
  Alcotest.(check int) "[8,16)" 2 (find 8).Histogram.count;
  let total = List.fold_left (fun a b -> a + b.Histogram.count) 0 bins in
  Alcotest.(check int) "total preserved" 8 total

let float_array_gen =
  QCheck2.Gen.(array_size (int_range 2 50) (float_range (-1000.0) 1000.0))

let prop_pearson_bounded =
  Test_util.qtest "pearson in [-1,1]"
    ~print:(fun (a, _) -> Printf.sprintf "n=%d" (Array.length a))
    QCheck2.Gen.(
      float_array_gen >>= fun xs ->
      array_repeat (Array.length xs) (float_range (-1000.0) 1000.0) >|= fun ys -> (xs, ys))
    (fun (xs, ys) ->
      let c = Correlation.pearson xs ys in
      c >= -1.0 -. 1e-9 && c <= 1.0 +. 1e-9)

let prop_pearson_self =
  Test_util.qtest "pearson(x,x) = 1 unless constant"
    ~print:(fun a -> Printf.sprintf "n=%d" (Array.length a))
    float_array_gen
    (fun xs ->
      let constant = Array.for_all (fun x -> x = xs.(0)) xs in
      let c = Correlation.pearson xs xs in
      if constant then c = 0.0 else abs_float (c -. 1.0) < 1e-9)

let prop_cdf_monotone =
  Test_util.qtest "cdf monotone and ends at 1"
    ~print:(fun a -> Printf.sprintf "n=%d" (Array.length a))
    QCheck2.Gen.(array_size (int_range 1 50) (float_range (-100.0) 100.0))
    (fun xs ->
      let c = Cdf.of_samples xs in
      let hi = Array.fold_left Float.max xs.(0) xs in
      abs_float (Cdf.eval c hi -. 1.0) < 1e-9
      && Cdf.eval c (hi -. 1.0) <= Cdf.eval c hi +. 1e-9)

let suite =
  [
    Alcotest.test_case "mean/stdev" `Quick test_mean_stdev;
    Alcotest.test_case "quantiles" `Quick test_quantiles;
    Alcotest.test_case "pearson known" `Quick test_pearson_known;
    Alcotest.test_case "pearson errors" `Quick test_pearson_errors;
    Alcotest.test_case "cdf" `Quick test_cdf;
    Alcotest.test_case "log2 bins" `Quick test_log2_bins;
  ]

(* --- ascii plots --- *)

module Asciiplot = Cutfit_stats.Asciiplot

let test_scatter_renders () =
  let s =
    Asciiplot.scatter ~width:30 ~height:8
      [ { Asciiplot.label = "a"; glyph = 'a'; points = [ (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) ] } ]
  in
  checkb "contains glyph" true (String.contains s 'a');
  checkb "contains axis" true (String.contains s '+');
  checkb "multi-line" true (List.length (String.split_on_char '\n' s) > 8)

let test_scatter_log_drops_nonpositive () =
  let s =
    Asciiplot.scatter ~log_x:true ~log_y:true
      [ { Asciiplot.label = "bad"; glyph = 'b'; points = [ (0.0, 1.0); (-1.0, 2.0) ] } ]
  in
  checkb "no plottable points" true
    (String.length s >= 21 && String.sub s 0 21 = "(no plottable points)")

let test_scatter_overlap_star () =
  let s =
    Asciiplot.scatter ~width:10 ~height:4
      [
        { Asciiplot.label = "a"; glyph = 'a'; points = [ (1.0, 1.0); (2.0, 2.0) ] };
        { Asciiplot.label = "b"; glyph = 'b'; points = [ (1.0, 1.0) ] };
      ]
  in
  checkb "overlap marked" true (String.contains s '*')

let test_scatter_single_point () =
  let s =
    Asciiplot.scatter [ { Asciiplot.label = "p"; glyph = 'p'; points = [ (5.0, 5.0) ] } ]
  in
  checkb "renders" true (String.contains s 'p')

let suite =
  suite
  @ [
      Alcotest.test_case "scatter renders" `Quick test_scatter_renders;
      Alcotest.test_case "scatter log drops nonpositive" `Quick test_scatter_log_drops_nonpositive;
      Alcotest.test_case "scatter overlap star" `Quick test_scatter_overlap_star;
      Alcotest.test_case "scatter single point" `Quick test_scatter_single_point;
    ]

(* --- power-law fitting --- *)

module Powerlaw = Cutfit_stats.Powerlaw

let test_powerlaw_recovers_zipf_exponent () =
  (* Sample a Zipf(s=2.0) tail, P(k) proportional to k^-2 on [1, n], from
     an alias table, and check the MLE lands near 2. *)
  let rng = Cutfit_prng.Xoshiro.create 77L in
  let zipf = Cutfit_prng.Dist.Alias.create (Array.init 100_000 (fun i -> float_of_int (i + 1) ** -2.0)) in
  let values = Array.init 20_000 (fun _ -> 1 + Cutfit_prng.Dist.Alias.sample zipf rng) in
  match Powerlaw.fit_alpha ~x_min:5 values with
  | Some f -> checkb "alpha near 2" true (abs_float (f.Powerlaw.alpha -. 2.0) < 0.25)
  | None -> Alcotest.fail "expected a fit"

let test_powerlaw_too_few_samples () =
  checkb "none on tiny sample" true (Powerlaw.fit_alpha [| 5; 6; 7 |] = None)

let suite =
  suite
  @ [
      Alcotest.test_case "powerlaw recovers zipf" `Quick test_powerlaw_recovers_zipf_exponent;
      Alcotest.test_case "powerlaw small sample" `Quick test_powerlaw_too_few_samples;
    ]

(* --- properties --- *)

let suite = suite @ [ prop_cdf_monotone; prop_pearson_bounded; prop_pearson_self ]
