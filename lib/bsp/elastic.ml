module Splitmix64 = Cutfit_prng.Splitmix64

type item =
  | Join of { step : int; count : int }
  | Leave of { step : int; count : int }
  | Preempt of { step : int; retries : int }

type config = { items : item list; seed : int }

let dsl = "scale-events"
let fail ~item fmt = Spec_error.fail ~dsl ~item fmt

(* "T", "T+N" or "T-N": the superstep an event fires at, plus the signed
   executor delta. The sign is part of the grammar, so "join@3-1" is a
   parse error rather than a silently shrinking join. *)
let parse_at ~item ~sign s =
  let int = Spec_error.int ~dsl ~item in
  match String.index_opt s sign with
  | None -> (int s, 1)
  | Some i ->
      let step = int (String.sub s 0 i) in
      let count = Spec_error.count ~dsl ~item (String.sub s (i + 1) (String.length s - i - 1)) in
      if count < 1 then fail ~item "executor delta must be >= 1";
      (step, count)

let parse_item s =
  let kind, head, opts = Spec_error.kind_args ~dsl s in
  let options allowed = Spec_error.options ~dsl ~item:s ~allowed opts in
  let membership ~sign what =
    let step, count = parse_at ~item:s ~sign head in
    if step < 1 then fail ~item:s "%s fire at supersteps >= 1" what;
    let (_ : char -> string option) = options "" in
    (step, count)
  in
  match kind with
  | "join" ->
      let step, count = membership ~sign:'+' "joins" in
      Join { step; count }
  | "leave" ->
      let step, count = membership ~sign:'-' "leaves" in
      Leave { step; count }
  | "preempt" ->
      let int = Spec_error.int ~dsl ~item:s in
      let step = int head in
      if step < 1 then fail ~item:s "preemptions fire at supersteps >= 1";
      let retries = Option.fold ~none:1 ~some:int (options "r" 'r') in
      if retries < 1 then fail ~item:s "retries must be >= 1";
      Preempt { step; retries }
  | k -> fail ~item:s "unknown kind %S" k

let parse_spec raw = Spec_error.list ~dsl ~what:"events" parse_item raw

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

let config ?(seed = 42) raw = { items = parse_spec raw; seed }

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
  let dsl = "hetero" in
  let entry item =
    let mult = Spec_error.float ~dsl ~item in
    let speed, bw =
      match String.index_opt item '/' with
      | None ->
          let v = mult item in
          (v, v)
      | Some i -> (mult (String.sub item 0 i), mult (String.sub item (i + 1) (String.length item - i - 1)))
    in
    if speed <= 0.0 || bw <= 0.0 then Spec_error.fail ~dsl ~item "multipliers must be > 0";
    (speed, bw)
  in
  let entries = Array.of_list (Spec_error.list ~dsl ~what:"entries" entry raw) in
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
