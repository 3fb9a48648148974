type t = Rvc | One_d | Two_d | Crvc | Sc | Dc

let all = [ Rvc; One_d; Two_d; Crvc; Sc; Dc ]

let to_string = function
  | Rvc -> "RVC"
  | One_d -> "1D"
  | Two_d -> "2D"
  | Crvc -> "CRVC"
  | Sc -> "SC"
  | Dc -> "DC"

let of_string s =
  match String.uppercase_ascii s with
  | "RVC" -> Some Rvc
  | "1D" -> Some One_d
  | "2D" -> Some Two_d
  | "CRVC" -> Some Crvc
  | "SC" -> Some Sc
  | "DC" -> Some Dc
  | _ -> None

let ceil_sqrt n =
  let r = int_of_float (sqrt (float_of_int n)) in
  if r * r >= n then r else r + 1

(* Applied to [t] and [num_partitions] alone, this resolves the strategy
   and its grid shape once; the returned function places one edge. *)
let edge_partition t ~num_partitions =
  if num_partitions <= 0 then invalid_arg "Strategy.edge_partition: num_partitions <= 0";
  let place =
    match t with
    | Rvc -> fun src dst -> Hashing.hash2 src dst ~num_partitions
    | One_d -> fun src _ -> Hashing.hash1 src ~num_partitions
    | Two_d ->
        (* GraphX's grid. Perfect squares get the clean sqrt x sqrt grid;
           otherwise GraphX falls back to a cols x rows rectangle with a
           short last column, which is where the "potentially creates
           imbalanced partitioning" caveat of the paper comes from. *)
        let side = ceil_sqrt num_partitions in
        if side * side = num_partitions then fun src dst ->
          let col = Hashing.mix src mod side and row = Hashing.mix dst mod side in
          (col * side) + row
        else begin
          let cols = side in
          let rows = (num_partitions + cols - 1) / cols in
          let last_col_rows = num_partitions - (rows * (cols - 1)) in
          fun src dst ->
            let col = Hashing.mix src mod num_partitions / rows in
            let row = Hashing.mix dst mod (if col < cols - 1 then rows else last_col_rows) in
            (col * rows) + row
        end
    | Crvc ->
        fun src dst ->
          if src < dst then Hashing.hash2 src dst ~num_partitions
          else Hashing.hash2 dst src ~num_partitions
    | Sc -> fun src _ -> src mod num_partitions
    | Dc -> fun _ dst -> dst mod num_partitions
  in
  fun ~src ~dst ->
    if src < 0 || dst < 0 then invalid_arg "Strategy.edge_partition: negative vertex id";
    place src dst
