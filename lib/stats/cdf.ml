type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  { sorted }

(* Number of elements <= x, by binary search for the upper bound. *)
let count_le t x =
  let a = t.sorted in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let eval t x = float_of_int (count_le t x) /. float_of_int (Array.length t.sorted)
