type rng = Xoshiro.t

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate <= 0";
  let u = 1.0 -. Xoshiro.next_float rng in
  -.log u /. rate

let geometric rng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Dist.geometric: p out of (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. Xoshiro.next_float rng in
    int_of_float (floor (log u /. log (1.0 -. p)))

let power_law_weights ~n ~alpha ~min_weight =
  if n <= 0 then invalid_arg "Dist.power_law_weights: n <= 0";
  if alpha <= 1.0 then invalid_arg "Dist.power_law_weights: alpha <= 1";
  let exponent = 1.0 /. (alpha -. 1.0) in
  Array.init n (fun i ->
      min_weight *. ((float_of_int n /. float_of_int (i + 1)) ** exponent))

module Alias = struct
  type t = { prob : float array; alias : int array }

  let create weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Alias.create: empty weights";
    let sum = Array.fold_left ( +. ) 0.0 weights in
    if sum <= 0.0 then invalid_arg "Alias.create: non-positive total weight";
    Array.iter (fun w -> if w < 0.0 then invalid_arg "Alias.create: negative weight") weights;
    let scaled = Array.map (fun w -> w *. float_of_int n /. sum) weights in
    let prob = Array.make n 0.0 and alias = Array.make n 0 in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri (fun i p -> Stack.push i (if p < 1.0 then small else large)) scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s = Stack.pop small and l = Stack.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      Stack.push l (if scaled.(l) < 1.0 then small else large)
    done;
    Stack.iter (fun i -> prob.(i) <- 1.0) small;
    Stack.iter (fun i -> prob.(i) <- 1.0) large;
    { prob; alias }

  let sample t rng =
    let n = Array.length t.prob in
    let i = Xoshiro.next_int rng n in
    if Xoshiro.next_float rng < t.prob.(i) then i else t.alias.(i)

  let size t = Array.length t.prob
end

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro.next_int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct rng ~n ~k =
  if k > n then invalid_arg "Dist.sample_distinct: k > n";
  if k < 0 then invalid_arg "Dist.sample_distinct: k < 0";
  (* Floyd's algorithm keeps memory at O(k) even for huge n. *)
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let idx = ref 0 in
  for j = n - k to n - 1 do
    let t = Xoshiro.next_int rng (j + 1) in
    let v = if Hashtbl.mem seen t then j else t in
    Hashtbl.add seen v ();
    out.(!idx) <- v;
    incr idx
  done;
  shuffle rng out;
  out
