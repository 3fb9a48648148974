(* The measurement loop: set a workload up several times, time passes
   over its units until the time is spent, verify the outputs, report.

   End-to-end metrics come from untraced passes. With tracing on, the
   run instead alternates untraced and traced passes: the traced ones
   give the per-layer numbers and the pairs give the tracing overhead.
   Load is a closed loop from one client on one domain. *)

module Json = Cutfit.Json
module W = Workloads

let end_to_end = [ ("setup_s", "s"); ("items_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("gen.generate_s", "s");
    ("partition.build_s", "s");
    ("bsp.exec_s", "s");
    ("check.verify_s", "s");
    ("bench.other_s", "s");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("obs.trace_overhead_frac", "frac");
  ]

(* Which per-layer metric a span's self time counts towards; spans that
   only structure the run (a pass, a cell, an engine run, a fork) fall
   to bench.other_s. *)
let layer_of name =
  let has prefix = String.starts_with ~prefix name in
  match name with
  | "gen.generate" | "gen.synthetic" | "gen.job_streams" | "gen.scenarios" | "graph.of_edge_list"
    ->
      "gen.generate_s"
  | "partition.assign" | "partition.metrics" | "bsp.pgraph_build" | "bsp.csr_build"
  | "workload.prepare" | "dynamic.batch" ->
      "partition.build_s"
  | "graph.symmetrize" | "workload.exec" -> "bsp.exec_s"
  | _ when has "algo." -> "bsp.exec_s"
  | _ when has "check." -> "check.verify_s"
  | _ -> "bench.other_s"

let median xs = Cutfit.Summary.median (Array.of_list xs)
let sum = List.fold_left ( +. ) 0.0
let isum = List.fold_left ( + ) 0

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None

let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        Float.nan (String.split_on_char '\n' status)

(* The checkout's commit, read from .git without running git; the
   benchmark also runs from exported trees that have none. *)
let commit () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let name = String.sub head 5 (String.length head - 5) in
      match trim (read_file (".git/" ^ name)) with
      | Some sha -> sha
      | None ->
          Option.value ~default:"unknown"
            (Option.bind (read_file ".git/packed-refs") (fun packed ->
                 List.find_map
                   (fun line ->
                     match String.split_on_char ' ' line with
                     | [ sha; r ] when String.equal r name -> Some sha
                     | _ -> None)
                   (String.split_on_char '\n' packed))))
  | Some sha -> sha

let env_line () =
  let l3 =
    Option.value ~default:"unknown"
      (Option.map String.trim (read_file "/sys/devices/system/cpu/cpu0/cache/index3/size"))
  in
  Printf.sprintf "nproc=%d domains=1 l3=%s ocaml=%s commit=%s"
    (Domain.recommended_domain_count ())
    l3 Sys.ocaml_version (commit ())

(* The speed reference. On a VM shared with other tenants the same work
   can take up to twice as long for minutes at a time, and no median
   over one run's passes removes that. So every set-up and pass
   is bracketed by this fixed loop (dependent loads over an L2-sized
   table, like the pointer-heavy code it stands in for), and its wall
   time is rescaled by reference / loop time: seconds at the speed the
   loop ran at on a quiet 2-core Xeon with 105 MiB of L3. *)
let calibration_table = Array.init 65536 (fun i -> ((i * 7919) + 1) land 65535)
let reference_calibration_s = 0.028

let calibrate () =
  let t0 = Cutfit.Clock.wall () in
  let j = ref 0 in
  for i = 1 to 4_000_000 do
    j := calibration_table.((!j + i) land 65535)
  done;
  ignore (Sys.opaque_identity !j);
  Cutfit.Clock.wall () -. t0

let speed_between before after = reference_calibration_s /. ((before +. after) /. 2.0)

(* Every set-up and pass starts from a collected heap, so neither pays
   for the garbage of the one before, and the peak RSS does not depend
   on where a major cycle happened to stand. *)
let settle () = Gc.full_major ()

(* Three set-ups, rescaled by the calibrations around them all; only
   the last instance is kept. *)
let set_up (w : W.t) size ~seed =
  let before = calibrate () in
  let inst = ref None in
  let times =
    List.init 3 (fun _ ->
        inst := None;
        settle ();
        let t0 = Cutfit.Clock.wall () in
        inst := Some (w.W.setup size ~seed Span.disabled);
        Cutfit.Clock.wall () -. t0)
  in
  let speed = speed_between before (calibrate ()) in
  (Option.get !inst, List.map (fun t -> t *. speed) times)

(* Whole passes while the next one, at the typical pass time so far,
   still ends inside [seconds]; always at least one. Returns (speed,
   wall, result) per pass: with [rescale], the speed from the
   calibrations either side of the pass, else 1. *)
let passes ~seconds ~rescale run_pass =
  let probe () = if rescale then calibrate () else reference_calibration_s in
  let t0 = Cutfit.Clock.wall () in
  let rec loop acc before =
    settle ();
    let start = Cutfit.Clock.wall () in
    let x = run_pass () in
    let wall = Cutfit.Clock.wall () -. start in
    let after = probe () in
    let acc = (speed_between before after, wall, x) :: acc in
    let typical = median (List.map (fun (_, wall, _) -> wall) acc) in
    if Cutfit.Clock.wall () -. t0 +. typical <= seconds then loop acc after else List.rev acc
  in
  loop [] (probe ())

type sample = { wall_s : float; outcome : W.outcome }

let run_unit tr ~in_process (u : W.unit_) =
  let f = if in_process then Option.value u.W.in_process ~default:u.W.run else u.W.run in
  let t0 = Cutfit.Clock.wall () in
  let outcome = f tr in
  { wall_s = Cutfit.Clock.wall () -. t0; outcome }

let layer_sums spans =
  List.fold_left
    (fun acc (s, self) ->
      let l = layer_of s.Span.name in
      (l, self +. Option.value (List.assoc_opt l acc) ~default:0.0) :: List.remove_assoc l acc)
    [] (Span.self_times spans)

let root spans name =
  List.find (fun s -> String.equal s.Span.name name && s.Span.parent < 0) spans

let gc_of s =
  ( s.Span.stop.Span.minor_words -. s.Span.start.Span.minor_words,
    float_of_int (s.Span.stop.Span.major_collections - s.Span.start.Span.major_collections) )

(* Per-layer metrics: self time over the traced set-up, the median
   traced pass and the traced verification. *)
let layers ~setup ~passes ~verify ~overhead =
  let once = [ layer_sums setup; layer_sums verify ] in
  let per_pass = List.map layer_sums passes in
  let get l xs = Option.value (List.assoc_opt l xs) ~default:0.0 in
  let gc_once = [ gc_of (root setup "bench.setup"); gc_of (root verify "bench.verify") ] in
  let gc_pass = List.map (fun p -> gc_of (root p "bench.pass")) passes in
  let gc f = sum (List.map f gc_once) +. median (List.map f gc_pass) in
  List.filter_map
    (fun (l, unit) ->
      if unit = "s" then Some (l, sum (List.map (get l) once) +. median (List.map (get l) per_pass))
      else None)
    per_layer
  @ [
      ("gc.minor_mwords", gc fst /. 1e6);
      ("gc.major_collections", gc snd);
      ("obs.trace_overhead_frac", overhead);
    ]

(* The finer table, by the names the spans carry: calls and self time
   per traced pass, and the spread of single-call durations. *)
let span_table passes =
  let names = List.sort_uniq compare (List.map (fun s -> s.Span.name) (List.concat passes)) in
  List.map
    (fun name ->
      let mine = List.filter (fun s -> String.equal s.Span.name name) in
      let self p =
        sum (List.filter_map (fun (s, t) -> if String.equal s.Span.name name then Some t else None) (Span.self_times p))
      in
      let q = Cutfit.Summary.quantile (Array.of_list (List.map Span.duration (mine (List.concat passes)))) in
      Printf.sprintf "span %s calls/pass=%d self_s/pass=%.6f dur_p50_s=%.6f dur_p85_s=%.6f dur_p95_s=%.6f"
        name
        (List.length (mine (List.hd passes)))
        (median (List.map self passes))
        (q 0.5) (q 0.85) (q 0.95))
    names

type result = { correct : bool; digest : string; metrics : (string * float * string) list }

let run ?(out = Format.std_formatter) ?trace_out ~golden (w : W.t) size ~seed ~seconds ~trace =
  let say fmt = Format.fprintf out fmt in
  say "# cutfit e2e workload=%s seed=%d seconds=%g trace=%d@." w.W.name seed seconds
    (if trace then 1 else 0);
  say "# env %s@." (env_line ());
  let tr = if trace then Span.create ~enabled:true else Span.disabled in
  let phase name f =
    let m = Span.mark tr in
    let x = Span.with_ tr name f in
    (x, Span.since tr m)
  in
  let inst, setup_s, setup_spans =
    if trace then
      let i, spans = phase "bench.setup" (fun () -> w.W.setup size ~seed tr) in
      (i, [], spans)
    else
      let i, times = set_up w size ~seed in
      (i, times, [])
  in
  let units = inst.W.units in
  let pass tr ~in_process () = List.map (run_unit tr ~in_process) units in
  (* untraced: (speed, wall, samples) per pass; traced: (wall, samples,
     spans) per pass. *)
  let forked, untraced, traced =
    if not trace then ([], passes ~seconds ~rescale:true (pass Span.disabled ~in_process:false), [])
    else begin
      (* Forks first: OCaml 5.1 refuses fork once a domain has spawned,
         and the in-process passes may spawn some. *)
      let forked =
        if List.exists (fun u -> Option.is_some u.W.in_process) units then
          [ (1.0, 0.0, pass Span.disabled ~in_process:false ()) ]
        else []
      in
      let pairs =
        passes ~seconds ~rescale:false (fun () ->
            let t0 = Cutfit.Clock.wall () in
            let u = pass Span.disabled ~in_process:true () in
            let wall_u = Cutfit.Clock.wall () -. t0 in
            settle ();
            let t1 = Cutfit.Clock.wall () in
            let t, spans = phase "bench.pass" (pass tr ~in_process:true) in
            ((1.0, wall_u, u), (Cutfit.Clock.wall () -. t1, t, spans)))
      in
      (forked, List.map (fun (_, _, (u, _)) -> u) pairs, List.map (fun (_, _, (_, t)) -> t) pairs)
    end
  in
  let all_passes =
    List.map (fun (_, _, p) -> p) (forked @ untraced) @ List.map (fun (_, p, _) -> p) traced
  in
  let nth_unit i = List.map (fun p -> List.nth p i) in
  let drifted =
    List.concat
      (List.mapi
         (fun i (u : W.unit_) ->
           match nth_unit i all_passes with
           | first :: rest
             when List.exists
                    (fun s -> not (String.equal s.outcome.W.digest first.outcome.W.digest))
                    rest ->
               [ Printf.sprintf "unit %s changed its output digest between passes" u.W.label ]
           | _ -> [])
         units)
  in
  (* Before the verification, whose reference computations are not the
     workload's. *)
  let peak_rss_mb = peak_rss_mb () in
  let verdict, verify_spans =
    if trace then phase "bench.verify" (fun () -> inst.W.verify tr)
    else (inst.W.verify Span.disabled, [])
  in
  let golden_errors, golden_state =
    match golden with
    | None -> ([], "none")
    | Some g when String.equal g verdict.W.digest -> ([], "match")
    | Some g ->
        ([ Printf.sprintf "golden digest mismatch: expected %s, got %s" g verdict.W.digest ], "MISMATCH")
  in
  let errors = drifted @ verdict.W.errors @ golden_errors in
  let count f = isum (List.map (fun p -> isum (List.map (fun s -> f s.outcome) p)) all_passes) in
  let attempted = count (fun o -> o.W.runs) and failed = count (fun o -> o.W.failed) in
  let items = isum (List.map (fun s -> s.outcome.W.items) (List.hd all_passes)) in
  (* Per unit, the median over passes of its (rescaled) wall time. *)
  let median_pass ps =
    sum
      (List.mapi
         (fun i _ -> median (List.map (fun (speed, _, p) -> speed *. (List.nth p i).wall_s) ps))
         units)
  in
  let metrics =
    if not trace then begin
      let raw = List.map (fun (_, wall, p) -> (1.0, wall, p)) untraced in
      say "# speed median=%.4f (reference loop %.4f s); unscaled items_per_s %s@."
        (median (List.map (fun (speed, _, _) -> speed) untraced))
        reference_calibration_s
        (Json.to_string (Json.Float (float_of_int items /. median_pass raw)));
      let values =
        [
          ("setup_s", median setup_s);
          ("items_per_s", float_of_int items /. median_pass untraced);
          ("peak_rss_mb", peak_rss_mb);
        ]
      in
      List.map (fun (name, unit) -> (name, List.assoc name values, unit)) end_to_end
    end
    else begin
      let overhead =
        median (List.map (fun (wall, _, _) -> wall) traced)
        /. median (List.map (fun (_, wall, _) -> wall) untraced)
        -. 1.0
      in
      let trace_passes = List.map (fun (_, _, spans) -> spans) traced in
      List.iter (say "# %s@.") (span_table trace_passes);
      if forked <> [] then
        say "# chaos.fork_s %.6f s (forked pass minus in-process pass)@."
          (median_pass forked -. median_pass untraced);
      Option.iter
        (fun path ->
          Span.write_jsonl tr path;
          say "# spans written to %s@." path)
        trace_out;
      let values = layers ~setup:setup_spans ~passes:trace_passes ~verify:verify_spans ~overhead in
      List.map (fun (name, unit) -> (name, List.assoc name values, unit)) per_layer
    end
  in
  say "# setups=%d passes untraced=%d traced=%d forked=%d units=%d items/pass=%d %s@."
    (List.length setup_s) (List.length untraced) (List.length traced) (List.length forked)
    (List.length units) items w.W.item;
  List.iter (fun (k, v) -> say "# note %s %s@." k v) verdict.W.notes;
  say "# attempted=%d failed=%d error_rate=%d/%d@." attempted failed failed attempted;
  say "# digest %s golden=%s@." verdict.W.digest golden_state;
  List.iter (say "# ERROR %s@.") errors;
  List.iter
    (fun (name, v, unit) -> say "%s %s %s@." name (Json.to_string (Json.Float v)) unit)
    metrics;
  let correct = errors = [] in
  say "%s@."
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  { correct; digest = verdict.W.digest; metrics }
