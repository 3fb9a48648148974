module Splitmix64 = Cutfit_prng.Splitmix64

type mode = Rollback | Lineage

type item =
  | Crash of { step : int; executor : int option }
  | Straggler of { from_step : int; to_step : int; executor : int option; factor : float }
  | Net of { from_step : int; to_step : int; factor : float }
  | Loss of { step : int; executor : int option; retries : int }
  | Rand of { rate : float }

type config = {
  items : item list;
  seed : int;
  max_failures : int;
  mode : mode;
}

let dsl = "faults"

let fail ~item fmt = Spec_error.fail ~dsl ~item fmt

let parse_item s =
  let int = Spec_error.int ~dsl ~item:s and float = Spec_error.float ~dsl ~item:s in
  let kind, head, opts = Spec_error.kind_args ~dsl s in
  let options allowed = Spec_error.options ~dsl ~item:s ~allowed opts in
  match kind with
  | "crash" ->
      let step = int head in
      if step < 1 then fail ~item:s "crashes fire at supersteps >= 1";
      let o = options "e" in
      Crash { step; executor = Option.map int (o 'e') }
  | "straggler" ->
      let from_step, to_step = Spec_error.window ~dsl ~item:s head in
      if from_step < 1 then fail ~item:s "stragglers fire at supersteps >= 1";
      let o = options "ex" in
      let factor = Option.fold ~none:4.0 ~some:float (o 'x') in
      if factor < 1.0 then fail ~item:s "straggler factor must be >= 1";
      Straggler { from_step; to_step; executor = Option.map int (o 'e'); factor }
  | "net" ->
      let from_step, to_step = Spec_error.window ~dsl ~item:s head in
      if from_step < 1 then fail ~item:s "degraded windows start at superstep >= 1";
      let o = options "x" in
      let factor = Option.fold ~none:0.25 ~some:float (o 'x') in
      if factor <= 0.0 || factor > 1.0 then fail ~item:s "net factor must be in (0, 1]";
      Net { from_step; to_step; factor }
  | "loss" ->
      let step = int head in
      if step < 1 then fail ~item:s "shuffle losses fire at supersteps >= 1";
      let o = options "er" in
      let retries = Option.fold ~none:1 ~some:int (o 'r') in
      if retries < 1 then fail ~item:s "retries must be >= 1";
      Loss { step; executor = Option.map int (o 'e'); retries }
  | "rand" ->
      let rate = float head in
      if rate < 0.0 || rate > 1.0 then fail ~item:s "rate must be in [0, 1]";
      let (_ : char -> string option) = options "" in
      Rand { rate }
  | k -> fail ~item:s "unknown kind %S" k

let parse_spec raw = Spec_error.list ~dsl ~what:"faults" parse_item raw

(* Canonical printer, the shrinker's and repro harness's inverse of
   {!parse_spec}: options at their documented defaults are omitted, so
   the printed spec is the minimal string that re-parses to the same
   items ([parse_spec (to_spec items) = items]). *)
let exec_lit = function None -> "" | Some e -> Printf.sprintf ":e%d" e
let factor_lit ~default f = if Float.equal f default then "" else ":x" ^ Spec_error.float_lit f

let item_to_spec = function
  | Crash { step; executor } -> Printf.sprintf "crash@%d%s" step (exec_lit executor)
  | Straggler { from_step; to_step; executor; factor } ->
      Printf.sprintf "straggler@%s%s%s" (Spec_error.window_lit from_step to_step)
        (exec_lit executor) (factor_lit ~default:4.0 factor)
  | Net { from_step; to_step; factor } ->
      Printf.sprintf "net@%s%s" (Spec_error.window_lit from_step to_step)
        (factor_lit ~default:0.25 factor)
  | Loss { step; executor; retries } ->
      Printf.sprintf "loss@%d%s%s" step (exec_lit executor)
        (if retries = 1 then "" else Printf.sprintf ":r%d" retries)
  | Rand { rate } -> Printf.sprintf "rand@%s" (Spec_error.float_lit rate)

let to_spec items = String.concat "," (List.map item_to_spec items)

let config ?(seed = 42) ?(max_failures = 2) ?(mode = Rollback) raw =
  { items = parse_spec raw; seed; max_failures; mode }

let mode_name = function Rollback -> "rollback" | Lineage -> "lineage"

let mode_of_name = function
  | "rollback" -> Rollback
  | "lineage" -> Lineage
  | s -> Spec_error.fail ~dsl "unknown recovery mode %S (rollback|lineage)" s

let describe c =
  Printf.sprintf "faults %S seed=%d max-failures=%d recovery=%s" (to_spec c.items) c.seed
    c.max_failures (mode_name c.mode)

(* Every random choice below is a keyed draw ([Splitmix64.draw]) per
   (salt, step): plan order never matters, so the realized schedule
   depends only on (seed, spec), not on how the engine interleaves
   calls. *)

type resolved =
  | R_crash of { step : int; executor : int }
  | R_straggler of { from_step : int; to_step : int; executor : int; factor : float }
  | R_net of { from_step : int; to_step : int; factor : float }
  | R_loss of { step : int; executor : int; retries : int }
  | R_rand of { rate : float }

type session = {
  sconfig : config;
  executors : int;
  resolved : resolved list;
  mutable crashes : int;
}

let session ~executors c =
  if executors <= 0 then invalid_arg "Faults.session: executors <= 0";
  let resolve idx = function
    | Some e -> ((e mod executors) + executors) mod executors
    | None -> Splitmix64.draw_mod (Splitmix64.draw ~seed:c.seed ~salt:idx ~k:0) executors
  in
  let resolved =
    List.mapi
      (fun idx -> function
        | Crash { step; executor } -> R_crash { step; executor = resolve idx executor }
        | Straggler { from_step; to_step; executor; factor } ->
            R_straggler { from_step; to_step; executor = resolve idx executor; factor }
        | Net { from_step; to_step; factor } -> R_net { from_step; to_step; factor }
        | Loss { step; executor; retries } ->
            R_loss { step; executor = resolve idx executor; retries }
        | Rand { rate } -> R_rand { rate })
      c.items
  in
  { sconfig = c; executors; resolved; crashes = 0 }

let session_config s = s.sconfig

let note_crash s =
  s.crashes <- s.crashes + 1;
  if s.crashes > s.sconfig.max_failures then `Abort else `Recover

type announcement = { fault_kind : string; fault_executor : int; detail : string }

type plan = {
  compute_factor : int -> float;
  network_factor : float;
  loss : (int * int) option;
  crash : int option;
  announce : announcement list;
}

let neutral =
  {
    compute_factor = (fun _ -> 1.0);
    network_factor = 1.0;
    loss = None;
    crash = None;
    announce = [];
  }

let plan s ~step =
  if step < 1 then neutral
  else begin
    let slow = Array.make s.executors 1.0 in
    let netf = ref 1.0 in
    let loss = ref None and crash = ref None in
    let ann = ref [] in
    let add_ann fault_kind fault_executor detail =
      ann := { fault_kind; fault_executor; detail } :: !ann
    in
    List.iteri
      (fun idx -> function
        | R_crash c when c.step = step ->
            if !crash = None then begin
              crash := Some c.executor;
              add_ann "crash" c.executor "executor lost at superstep barrier"
            end
        | R_straggler g when g.from_step <= step && step <= g.to_step ->
            slow.(g.executor) <- slow.(g.executor) *. g.factor;
            if step = g.from_step then
              add_ann "straggler" g.executor
                (Printf.sprintf "slowdown x%g through step %d" g.factor g.to_step)
        | R_net n when n.from_step <= step && step <= n.to_step ->
            netf := !netf *. n.factor;
            if step = n.from_step then
              add_ann "net" (-1)
                (Printf.sprintf "bandwidth x%g through step %d" n.factor n.to_step)
        | R_loss l when l.step = step ->
            if !loss = None then begin
              loss := Some (l.executor, l.retries);
              add_ann "loss" l.executor
                (Printf.sprintf "shuffle lost, %d retransmission(s)" l.retries)
            end
        | R_rand { rate } ->
            let h = Splitmix64.draw ~seed:s.sconfig.seed ~salt:(1000 + idx) ~k:step in
            if Splitmix64.unit_float h < rate then begin
              let h2 = Splitmix64.draw ~seed:s.sconfig.seed ~salt:(2000 + idx) ~k:step in
              let e = Splitmix64.draw_mod h2 s.executors in
              match Int64.to_int (Int64.rem (Int64.shift_right_logical h 33) 4L) with
              | 0 ->
                  if !crash = None then begin
                    crash := Some e;
                    add_ann "crash" e "random executor loss"
                  end
              | 1 ->
                  slow.(e) <- slow.(e) *. 4.0;
                  add_ann "straggler" e "random slowdown x4"
              | 2 ->
                  netf := !netf *. 0.25;
                  add_ann "net" (-1) "random bandwidth x0.25"
              | _ ->
                  if !loss = None then begin
                    loss := Some (e, 1);
                    add_ann "loss" e "random shuffle loss, 1 retransmission"
                  end
            end
        | R_crash _ | R_straggler _ | R_net _ | R_loss _ -> ())
      s.resolved;
    {
      compute_factor = (fun e -> slow.(e));
      network_factor = !netf;
      loss = !loss;
      crash = !crash;
      announce = List.rev !ann;
    }
  end
