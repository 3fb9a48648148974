type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next_int64 sm in
  let s1 = Splitmix64.next_int64 sm in
  let s2 = Splitmix64.next_int64 sm in
  let s3 = Splitmix64.next_int64 sm in
  { s0; s1; s2; s3 }

let rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let next_int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let next_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let next_int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.next_int: bound <= 0";
  let r = Int64.shift_right_logical (next_int64 t) 2 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let next_bool t p = next_float t < p
