(* Benchmark-side wall-clock spans around the calls into each library
   layer. A disabled tracer calls straight through and reads no clock,
   so untraced passes pay nothing for it. Spans stay in memory and are
   written as JSONL once the run ends. *)

type sample = { at : float; minor_words : float; major_collections : int }

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  subject : string;  (** the cell, job stream or scenario being worked on *)
  start : sample;
  stop : sample;
}

type t = {
  enabled : bool;
  origin : float;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable subject : string;
  mutable spans : span list;  (* newest first *)
}

let create ~enabled =
  { enabled; origin = Cutfit.Clock.wall (); next_id = 0; open_ids = []; subject = ""; spans = [] }

let disabled = create ~enabled:false
let enabled t = t.enabled

let sample t =
  {
    at = Cutfit.Clock.wall () -. t.origin;
    minor_words = Gc.minor_words ();
    major_collections = (Gc.quick_stat ()).Gc.major_collections;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.open_ids with p :: _ -> p | [] -> -1

let with_ ?subject t name f =
  if not t.enabled then f ()
  else begin
    let saved = t.subject in
    Option.iter (fun s -> t.subject <- s) subject;
    let id = fresh_id t in
    let parent = current t in
    t.open_ids <- id :: t.open_ids;
    let start = sample t in
    Fun.protect f ~finally:(fun () ->
        let stop = sample t in
        t.open_ids <- List.tl t.open_ids;
        t.spans <- { id; parent; name; subject = t.subject; start; stop } :: t.spans;
        t.subject <- saved)
  end

let add ?subject t name ~start ~stop =
  if t.enabled then
    t.spans <-
      {
        id = fresh_id t;
        parent = current t;
        name;
        subject = Option.value subject ~default:t.subject;
        start;
        stop;
      }
      :: t.spans

(* A telemetry sink that stamps every event with the wall clock and the
   allocation counters at the instant the engine emitted it. *)
let stamp_sink t =
  let stamps = ref [] in
  let sink =
    { Cutfit.Sink.emit = (fun e -> stamps := (e, sample t) :: !stamps); close = ignore }
  in
  (sink, fun () -> List.rev !stamps)

let mark t = t.next_id
let since t m = List.filter (fun s -> s.id >= m) t.spans
let duration s = s.stop.at -. s.start.at

(* Self time: a span's duration minus the part its direct children
   cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0.0 in
      Hashtbl.replace children s.parent (prev +. duration s))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0))
    spans

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Cutfit.Json.to_string
               (Cutfit.Json.Obj
                  [
                    ("id", Cutfit.Json.Int s.id);
                    ("parent", if s.parent < 0 then Cutfit.Json.Null else Cutfit.Json.Int s.parent);
                    ("name", Cutfit.Json.String s.name);
                    ("subject", Cutfit.Json.String s.subject);
                    ("start_s", Cutfit.Json.Float s.start.at);
                    ("end_s", Cutfit.Json.Float s.stop.at);
                    ("minor_words", Cutfit.Json.Float (s.stop.minor_words -. s.start.minor_words));
                    ( "major_collections",
                      Cutfit.Json.Int (s.stop.major_collections - s.start.major_collections) );
                  ]));
          output_char oc '\n')
        (List.sort (fun a b -> compare a.id b.id) t.spans))
