let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int n
  end

let stdev xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.quantile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median xs = quantile xs 0.5

type ptiles = { p50 : float; p95 : float; p99 : float }

(* Nearest-rank percentile: the smallest sample such that at least
   [q * n] samples are <= it (sorted.(ceil (q * n)) - 1). Unlike
   [quantile] this never interpolates, so every reported percentile is
   a value that actually occurred — the right definition for tail
   latencies, and trivially deterministic. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  sorted.(idx)

let percentiles xs =
  if Array.length xs = 0 then invalid_arg "Summary.percentiles: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  { p50 = nearest_rank sorted 0.50; p95 = nearest_rank sorted 0.95; p99 = nearest_rank sorted 0.99 }

let pp_ptiles ppf p =
  Format.fprintf ppf "p50=%.4g p95=%.4g p99=%.4g" p.p50 p.p95 p.p99

let commas n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
