type t = { emit : Event.t -> unit; close : unit -> unit }

let ring ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity <= 0";
  let buf = Array.make capacity None in
  let next = ref 0 in
  let stored = ref 0 in
  let emit e =
    buf.(!next) <- Some e;
    next := (!next + 1) mod capacity;
    if !stored < capacity then incr stored
  in
  let contents () =
    let start = if !stored < capacity then 0 else !next in
    List.init !stored (fun i ->
        match buf.((start + i) mod capacity) with
        | Some e -> e
        | None -> assert false)
  in
  ({ emit; close = (fun () -> ()) }, contents)

let collect () =
  let events = ref [] in
  ({ emit = (fun e -> events := e :: !events); close = (fun () -> ()) }, fun () -> List.rev !events)

let jsonl_channel oc =
  let emit e =
    output_string oc (Event.to_line e);
    output_char oc '\n'
  in
  { emit; close = (fun () -> flush oc) }

let jsonl path =
  let oc = open_out path in
  let inner = jsonl_channel oc in
  {
    inner with
    close =
      (fun () ->
        inner.close ();
        close_out oc);
  }

let console ppf =
  { emit = (fun e -> Format.fprintf ppf "%a@." Event.pp e); close = (fun () -> Format.pp_print_flush ppf ()) }
