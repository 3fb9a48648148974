let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Graph.iter_edges g (fun ~src ~dst ->
          Buffer.add_string buf (string_of_int src);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int dst);
          Buffer.add_char buf '\n';
          if Buffer.length buf > 60000 then begin
            Buffer.output_buffer oc buf;
            Buffer.clear buf
          end);
      Buffer.output_buffer oc buf)

(* Space- and tab-separated lines share one tokenizer. A line is blank,
   a ['#'] comment, or exactly two vertex ids; an id must be
   non-negative and leave the vertex count [1 + id] within
   [Sys.max_array_length]. *)
let parse_line line =
  let tokens =
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) (String.trim line))
    |> List.filter (fun t -> t <> "")
  in
  let id t =
    match int_of_string_opt t with
    | None -> Error (Printf.sprintf "vertex id %S is not an integer" t)
    | Some v when v < 0 -> Error (Printf.sprintf "vertex id %d is negative" v)
    | Some v when v >= Sys.max_array_length ->
        Error (Printf.sprintf "vertex id %d needs more than Sys.max_array_length vertices" v)
    | Some v -> Ok v
  in
  match tokens with
  | [] -> Ok None
  | t :: _ when t.[0] = '#' -> Ok None
  | [ a; b ] -> Result.bind (id a) (fun s -> Result.map (fun d -> Some (s, d)) (id b))
  | _ -> Error (Printf.sprintf "expected two vertex ids, got %d field(s)" (List.length tokens))

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let el = Edge_list.create () in
          let max_id = ref (-1) in
          let rec go lineno =
            match input_line ic with
            | exception End_of_file -> (
                (* A legal id can still ask for more vertex-array words
                   than the process may allocate. *)
                match Graph.of_edge_list ~n:(!max_id + 1) el with
                | g -> Ok g
                | exception Out_of_memory ->
                    Error
                      (Printf.sprintf "%s: vertex id %d needs %d vertices, which do not fit in memory"
                         path !max_id (!max_id + 1)))
            | exception Sys_error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)
            | line -> (
                match parse_line line with
                | Error reason -> Error (Printf.sprintf "%s:%d: %s" path lineno reason)
                | Ok None -> go (lineno + 1)
                | Ok (Some (s, d)) ->
                    Edge_list.add el ~src:s ~dst:d;
                    max_id := max !max_id (max s d);
                    go (lineno + 1))
          in
          go 1)

(* Every edge writes both ids, a space and a newline: 2m bytes plus
   each vertex's width times its degree. The width is constant on each
   [\[10^(d-1), 10^d)], so one degree-range sum per width covers all
   vertices; a bound past [max_int / 10] would overflow, and every id
   at or above it has one digit more. *)
let size_bytes g =
  let n = Graph.num_vertices g in
  let total = ref (2 * Graph.num_edges g) in
  let rec go d lo bound =
    let hi = min n bound in
    total := !total + (d * Graph.degree_sum g ~lo ~hi);
    if hi < n then
      if bound > max_int / 10 then total := !total + ((d + 1) * Graph.degree_sum g ~lo:hi ~hi:n)
      else go (d + 1) hi (bound * 10)
  in
  go 1 0 10;
  !total
