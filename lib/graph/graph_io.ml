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

let parse_line line lineno =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char '\t' line with
    | [ a; b ] -> Some (int_of_string a, int_of_string b)
    | _ -> (
        match String.split_on_char ' ' (String.concat " " (String.split_on_char '\t' line)) with
        | a :: rest -> (
            match List.filter (fun s -> s <> "") rest with
            | [ b ] -> (
                try Some (int_of_string a, int_of_string b)
                with Failure _ -> failwith (Printf.sprintf "Graph_io.load: bad line %d" lineno))
            | _ -> failwith (Printf.sprintf "Graph_io.load: bad line %d" lineno))
        | [] -> None)

let load ?n path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let el = Edge_list.create () in
      let max_id = ref (-1) in
      let lineno = ref 0 in
      (try
         while true do
           incr lineno;
           let line = input_line ic in
           match parse_line line !lineno with
           | None -> ()
           | Some (s, d) ->
               Edge_list.add el ~src:s ~dst:d;
               if s > !max_id then max_id := s;
               if d > !max_id then max_id := d
         done
       with End_of_file -> ());
      let n = match n with Some n -> n | None -> !max_id + 1 in
      Graph.of_edge_list ~n el)

(* Compare against successive powers of ten; a bound past [max_int / 10]
   would overflow, and anything at or above it has one digit more. *)
let digits v =
  let rec go d bound =
    if v < bound then d else if bound > max_int / 10 then d + 1 else go (d + 1) (bound * 10)
  in
  go 1 10

(* Every edge writes both ids, a space and a newline: 2m bytes plus
   each vertex's width times its degree. The width is constant on each
   [\[10^(d-1), 10^d)], so one degree-range sum per width covers all
   vertices, in the same bounds [digits] uses. *)
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
