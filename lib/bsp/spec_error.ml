type t = { dsl : string; item : string option; reason : string }

exception Error of t

let fail ~dsl ?item fmt =
  Printf.ksprintf (fun reason -> raise (Error { dsl; item; reason })) fmt

let message e =
  match e.item with
  | Some item -> Printf.sprintf "%s spec, item %S: %s" e.dsl item e.reason
  | None -> Printf.sprintf "%s spec: %s" e.dsl e.reason

(* --- the shared grammar ----------------------------------------------- *)

let items ?(sep = ',') raw =
  String.split_on_char sep raw |> List.map String.trim |> List.filter (fun s -> s <> "")

let list ~dsl ?item ?sep ~what f raw =
  match items ?sep raw with
  | [] -> fail ~dsl ?item "no %s given in %S" what raw
  | l -> List.map f l

let int ~dsl ~item s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> fail ~dsl ~item "expected an integer, got %S" s

let max_count = 1_000_000

let count ~dsl ~item s =
  let n = int ~dsl ~item s in
  if n > max_count then fail ~dsl ~item "count %d is above the ceiling of %d" n max_count;
  n

(* [nan <= 0.0] is false, so a range check downstream would let a
   non-finite number through: it is rejected here, once. *)
let float ~dsl ~item s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f -> f
  | Some _ -> fail ~dsl ~item "expected a finite number, got %S" s
  | None -> fail ~dsl ~item "expected a number, got %S" s

let kind_args ~dsl s =
  match String.index_opt s '@' with
  | None -> fail ~dsl ~item:s "expected KIND@ARGS"
  | Some i -> (
      let kind = String.trim (String.sub s 0 i) in
      match String.split_on_char ':' (String.sub s (i + 1) (String.length s - i - 1)) with
      | head :: opts -> (kind, head, opts)
      | [] -> assert false (* split_on_char returns at least one field *))

let window ~dsl ~item s =
  match String.index_opt s '-' with
  | None ->
      let k = int ~dsl ~item s in
      (k, k)
  | Some i ->
      let k = int ~dsl ~item (String.sub s 0 i) in
      let l = int ~dsl ~item (String.sub s (i + 1) (String.length s - i - 1)) in
      if l < k then fail ~dsl ~item "window %d-%d is backwards" k l;
      (k, l)

let options ~dsl ~item ~allowed opts =
  let read acc o =
    let o = String.trim o in
    if String.length o < 2 then fail ~dsl ~item "malformed option %S" o;
    let c = o.[0] in
    if not (String.contains allowed c) then
      if allowed = "" then fail ~dsl ~item "option %S not valid here (no options are)" o
      else fail ~dsl ~item "option %S not valid here (allowed: %s)" o allowed;
    if List.mem_assoc c acc then fail ~dsl ~item "option %C given twice" c;
    (c, String.sub o 1 (String.length o - 1)) :: acc
  in
  let given = List.fold_left read [] opts in
  fun c -> List.assoc_opt c given

(* The exponent's sign is dropped ("1e21", not "1e+21"): '+' separates
   the entries of a chaos list, and "1e21" reads back the same. *)
let float_lit f = String.concat "" (String.split_on_char '+' (Cutfit_obs.Json.shortest f))

let entry ~dsl ~item e =
  let name, value =
    match String.index_opt e ':' with
    | None -> (e, None)
    | Some i ->
        ( String.trim (String.sub e 0 i),
          Some (float ~dsl ~item (String.sub e (i + 1) (String.length e - i - 1))) )
  in
  if name = "" || String.contains name '/' then
    fail ~dsl ~item "name %S must be nonempty and contain no '/'" name;
  (match value with
  | Some v when v <= 0.0 -> fail ~dsl ~item "value must be positive (got %s)" (float_lit v)
  | _ -> ());
  (name, value)

let window_lit k l = if l = k then string_of_int k else Printf.sprintf "%d-%d" k l
