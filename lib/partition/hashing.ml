(* GraphX mixes a vertex id by multiplying with a large prime and taking
   Scala's Long.hashCode (upper 32 bits XOR lower 32), then abs. We
   reproduce that exactly: its partial structure (as opposed to a full
   avalanche) is part of why the paper's 1D behaves like SC on hubby
   graphs. *)
let mixing_prime = 1125899906842597L

let mix v =
  let x = Int64.mul (Int64.of_int v) mixing_prime in
  let h32 = Int64.to_int32 (Int64.logxor x (Int64.shift_right_logical x 32)) in
  abs (Int32.to_int h32)

let hash1 v ~num_partitions =
  if num_partitions <= 0 then invalid_arg "Hashing.hash1: num_partitions <= 0";
  mix v mod num_partitions

(* The pair hash stands in for Scala's Tuple2 hashCode (a MurmurHash3
   mix of both components). *)
let hash2 u v ~num_partitions =
  if num_partitions <= 0 then invalid_arg "Hashing.hash2: num_partitions <= 0";
  Cutfit_prng.Splitmix64.mix_pair mixing_prime u v mod num_partitions
