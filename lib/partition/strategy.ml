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

(* GraphX's 2D grid. Perfect squares get the clean sqrt x sqrt grid;
   otherwise GraphX falls back to a cols x rows rectangle with a short
   last column, which is where the "potentially creates imbalanced
   partitioning" caveat of the paper comes from. A square is the case
   [rows = last_rows = side] with columns taken [mod side]. An edge
   lands in [col_base (mix src) + row ~base (mix dst)]. *)
type grid = { num_partitions : int; square : bool; rows : int; last_rows : int; last_base : int }

let grid num_partitions =
  let side = ceil_sqrt num_partitions in
  let rows = (num_partitions + side - 1) / side in
  let last_rows = num_partitions - (rows * (side - 1)) in
  { num_partitions; square = side * side = num_partitions; rows; last_rows; last_base = (side - 1) * rows }

let[@inline] col_base gr x =
  (if gr.square then x mod gr.rows else x mod gr.num_partitions / gr.rows) * gr.rows

let[@inline] row gr ~base x = x mod (if base < gr.last_base then gr.rows else gr.last_rows)

type tables = {
  modulo : int array;
  hashed : int array;
  grid_base : int array;
  grid_row : int array;
  grid_row_last : int array;
  grid_last_base : int;
}

let tables ~num_partitions n =
  if num_partitions <= 0 then invalid_arg "Strategy.tables: num_partitions <= 0";
  let gr = grid num_partitions in
  let modulo = Array.make n 0 and hashed = Array.make n 0 and grid_base = Array.make n 0 in
  let grid_row = Array.make n 0 in
  let grid_row_last = if gr.square then grid_row else Array.make n 0 in
  let r = ref 0 in
  for v = 0 to n - 1 do
    modulo.(v) <- !r;
    r := if !r = num_partitions - 1 then 0 else !r + 1;
    let x = Hashing.mix v in
    hashed.(v) <- x mod num_partitions;
    grid_base.(v) <- col_base gr x;
    (* Column 0 is a full column unless the grid is 1 x 1, whose row
       counts agree. *)
    grid_row.(v) <- row gr ~base:0 x;
    if not gr.square then grid_row_last.(v) <- row gr ~base:gr.last_base x
  done;
  { modulo; hashed; grid_base; grid_row; grid_row_last; grid_last_base = gr.last_base }

(* Applied to [t] and [num_partitions] alone, this resolves the strategy
   and its grid shape once; the returned function places one edge. *)
let edge_partition t ~num_partitions =
  if num_partitions <= 0 then invalid_arg "Strategy.edge_partition: num_partitions <= 0";
  let place =
    match t with
    | Rvc -> fun src dst -> Hashing.hash2 src dst ~num_partitions
    | One_d -> fun src _ -> Hashing.hash1 src ~num_partitions
    | Two_d ->
        let gr = grid num_partitions in
        fun src dst ->
          let base = col_base gr (Hashing.mix src) in
          base + row gr ~base (Hashing.mix dst)
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
