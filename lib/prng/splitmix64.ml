type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* [@inline] lets the int-level entries below run the finalizer on
   unboxed Int64 locals; a call across a module boundary boxes its
   Int64 argument and result. *)
let[@inline] mix64 x =
  let x = Int64.(mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L) in
  let x = Int64.(mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL) in
  Int64.(logxor x (shift_right_logical x 31))

let mix_pair k u v =
  Int64.to_int
    (Int64.shift_right_logical
       (mix64 (Int64.logxor (Int64.mul (Int64.of_int u) k) (Int64.add (Int64.of_int v) golden_gamma)))
       2)

let nth_bits53 ~seed i =
  Int64.to_int
    (Int64.shift_right_logical
       (mix64 (Int64.add (Int64.mul (Int64.of_int i) golden_gamma) (Int64.of_int seed)))
       11)

let[@inline] draw ~seed ~salt ~k =
  mix64
    (Int64.logxor
       (Int64.mul (Int64.of_int seed) golden_gamma)
       (Int64.add (Int64.mul (Int64.of_int salt) 0xBF58476D1CE4E5B9L) (Int64.of_int k)))

let draw_bits53 ~seed ~salt ~k = Int64.to_int (Int64.shift_right_logical (draw ~seed ~salt ~k) 11)
let finalizer_key = -0x2A87FDB209B3D3CE
let unit_float h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
let draw_mod h m = Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int m))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let next_int t bound =
  if bound <= 0 then invalid_arg "Splitmix64.next_int: bound <= 0";
  (* Rejection-free for practical purposes: take the high bits modulo bound.
     Bias is < bound / 2^62, negligible for the bounds we use (< 2^32). *)
  let r = Int64.shift_right_logical (next_int64 t) 2 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))
