module Splitmix64 = Cutfit_prng.Splitmix64

type item =
  | Join of { step : int; count : int }
  | Leave of { step : int; count : int }
  | Preempt of { step : int; retries : int }

type config = { items : item list; raw : string; seed : int }

let dsl = "scale-events"
let fail ~item fmt = Spec_error.fail ~dsl ~item fmt
let fail_spec fmt = Spec_error.fail ~dsl fmt

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ~item:what "expected an integer, got %S" s

(* "T", "T+N" or "T-N": the superstep an event fires at, plus the signed
   executor delta. The sign is part of the grammar, so "join@3-1" is a
   parse error rather than a silently shrinking join. *)
let parse_at what ~sign s =
  match String.index_opt s sign with
  | None -> (parse_int what s, 1)
  | Some i ->
      let step = parse_int what (String.sub s 0 i) in
      let count = parse_int what (String.sub s (i + 1) (String.length s - i - 1)) in
      if count < 1 then fail ~item:what "executor delta must be >= 1";
      (step, count)

let parse_item s =
  match String.index_opt s '@' with
  | None -> fail ~item:s "expected KIND@ARGS"
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "join" ->
          let step, count = parse_at s ~sign:'+' rest in
          if step < 1 then fail ~item:s "joins fire at supersteps >= 1";
          Join { step; count }
      | "leave" ->
          let step, count = parse_at s ~sign:'-' rest in
          if step < 1 then fail ~item:s "leaves fire at supersteps >= 1";
          Leave { step; count }
      | "preempt" -> (
          let head, opts =
            match String.split_on_char ':' rest with
            | h :: t -> (h, t)
            | [] -> fail ~item:s "missing arguments"
          in
          let step = parse_int s head in
          if step < 1 then fail ~item:s "preemptions fire at supersteps >= 1";
          match opts with
          | [] -> Preempt { step; retries = 1 }
          | [ o ] when String.length o >= 2 && o.[0] = 'r' ->
              let retries = parse_int s (String.sub o 1 (String.length o - 1)) in
              if retries < 1 then fail ~item:s "retries must be >= 1";
              Preempt { step; retries }
          | _ -> fail ~item:s "only a :rN option is valid here")
      | k -> fail ~item:s "unknown kind %S" k)

let parse_spec raw =
  let items =
    String.split_on_char ',' raw
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map parse_item
  in
  if items = [] then fail_spec "no events given in %S" raw;
  items

(* Canonical inverse of {!parse_spec}: counts and retries of 1 are
   omitted, so [parse_spec (to_spec items) = items] and the printed
   string is minimal. *)
let item_to_spec = function
  | Join { step; count } ->
      if count = 1 then Printf.sprintf "join@%d" step
      else Printf.sprintf "join@%d+%d" step count
  | Leave { step; count } ->
      if count = 1 then Printf.sprintf "leave@%d" step
      else Printf.sprintf "leave@%d-%d" step count
  | Preempt { step; retries } ->
      if retries = 1 then Printf.sprintf "preempt@%d" step
      else Printf.sprintf "preempt@%d:r%d" step retries

let to_spec items = String.concat "," (List.map item_to_spec items)

let config ?(seed = 42) raw = { items = parse_spec raw; raw; seed }

let item_step = function Join { step; _ } | Leave { step; _ } | Preempt { step; _ } -> step

let events_at c ~step = List.filter (fun i -> item_step i = step) c.items

let total_joins c =
  List.fold_left (fun a -> function Join { count; _ } -> a + count | _ -> a) 0 c.items

let describe c = Printf.sprintf "scale-events [%s] seed=%d" (to_spec c.items) c.seed

(* Victims and host speeds are keyed draws ([Splitmix64.draw]): the
   realized schedule depends only on (seed, spec), never on the order
   the engine asks questions in. *)
let victim c ~step ~alive =
  Splitmix64.draw_mod (Splitmix64.draw ~seed:c.seed ~salt:(7000 + step) ~k:0) alive

(* --- Heterogeneous hosts ------------------------------------------- *)

type hetero = { speeds : float array; bandwidths : float array }

(* Per-executor capability multipliers in [0.6, 1.4]: wide enough to
   shift placement decisions, narrow enough that a slow host is a tax,
   not a straggler fault (those belong to Faults). *)
let hetero_spread = 0.8
let hetero_floor = 0.6

let draw_hetero ~seed ~executors =
  if executors <= 0 then invalid_arg "Elastic.draw_hetero: executors <= 0";
  let multiplier salt e =
    hetero_floor +. (hetero_spread *. Splitmix64.unit_float (Splitmix64.draw ~seed ~salt ~k:e))
  in
  {
    speeds = Array.init executors (multiplier 8001);
    bandwidths = Array.init executors (multiplier 8002);
  }

let hetero_of_spec ~executors raw =
  if executors <= 0 then invalid_arg "Elastic.hetero_of_spec: executors <= 0";
  let parse_mult item s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> Spec_error.fail ~dsl:"hetero" ~item "expected a number, got %S" s
  in
  let entries =
    String.split_on_char ',' raw
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           let speed, bw =
             match String.index_opt s '/' with
             | None ->
                 let v = parse_mult s s in
                 (v, v)
             | Some i ->
                 ( parse_mult s (String.sub s 0 i),
                   parse_mult s (String.sub s (i + 1) (String.length s - i - 1)) )
           in
           if speed <= 0.0 || bw <= 0.0 then
             Spec_error.fail ~dsl:"hetero" ~item:s "multipliers must be > 0";
           (speed, bw))
    |> Array.of_list
  in
  if Array.length entries = 0 then
    Spec_error.fail ~dsl:"hetero" "no entries given in %S" raw;
  (* Entries cycle, so "0.5/1,2/1" alternates slow and fast hosts at any
     cluster width. *)
  let n = Array.length entries in
  {
    speeds = Array.init executors (fun e -> fst entries.(e mod n));
    bandwidths = Array.init executors (fun e -> snd entries.(e mod n));
  }

let speed h e = if e < Array.length h.speeds then h.speeds.(e) else 1.0
let bandwidth h e = if e < Array.length h.bandwidths then h.bandwidths.(e) else 1.0

(* --- Engine-facing runtime ----------------------------------------- *)

type runtime = {
  rconfig : config option;
  rhetero : hetero option;
  initial : int;
  max_execs : int;
  mutable live : int;
}

let runtime ?config ?hetero ~executors () =
  if executors <= 0 then invalid_arg "Elastic.runtime: executors <= 0";
  let max_execs =
    executors + (match config with None -> 0 | Some c -> total_joins c)
  in
  {
    rconfig = config;
    rhetero = hetero;
    initial = executors;
    max_execs;
    live = executors;
  }

let live rt = rt.live
let max_executors rt = rt.max_execs
let exec_of rt p = p mod rt.live
let speed_of rt e = match rt.rhetero with None -> 1.0 | Some h -> speed h e
let bandwidth_of rt e = match rt.rhetero with None -> 1.0 | Some h -> bandwidth h e

(* Apply the scale events scheduled before compute superstep [step].
   Membership changes re-home every partition whose round-robin
   assignment moves and price the move over the wire; preemptions are
   handed back to the engine, which routes them through the Faults
   recovery machinery. Callbacks keep this module free of Pgraph and of
   the telemetry handle; the pricer records each reshuffle. *)
let step_events rt ~step ~num_partitions ~partition_bytes ~partition_vertices ~attr_wire_bytes
    ~scale ~bandwidth ~barrier_s ~on_reshuffle ~on_preempt =
  match rt.rconfig with
  | None -> ()
  | Some c ->
      let resize change after =
        let before = rt.live in
        if after <> before then begin
          let moved = ref 0 and moved_bytes = ref 0.0 in
          let replicas = ref 0 in
          for p = 0 to num_partitions - 1 do
            if p mod before <> p mod after then begin
              incr moved;
              moved_bytes := !moved_bytes +. partition_bytes p;
              replicas := !replicas + partition_vertices p
            end
          done;
          let rebroadcast_bytes = scale *. float_of_int !replicas *. attr_wire_bytes in
          rt.live <- after;
          on_reshuffle change
            {
              Cutfit_obs.Event.step;
              executors_before = before;
              executors_after = after;
              moved_partitions = !moved;
              moved_bytes = !moved_bytes;
              rebroadcast_replicas = !replicas;
              rebroadcast_bytes;
              reshuffle_s = ((!moved_bytes +. rebroadcast_bytes) /. bandwidth) +. barrier_s;
            }
        end
      in
      List.iter
        (function
          | Preempt { retries; _ } ->
              on_preempt ~executor:(victim c ~step ~alive:rt.live) ~retries
          | Join { count; _ } -> resize (`Join count) (min rt.max_execs (rt.live + count))
          | Leave { count; _ } -> resize (`Leave count) (max 1 (rt.live - count)))
        (events_at c ~step)

let describe_hetero h =
  let fmt a =
    String.concat ","
      (Array.to_list (Array.map (fun v -> Printf.sprintf "%.2f" v) a))
  in
  Printf.sprintf "hetero speeds=[%s] bandwidths=[%s]" (fmt h.speeds) (fmt h.bandwidths)
