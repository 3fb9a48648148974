module Cluster = Cutfit_bsp.Cluster
module Elastic = Cutfit_bsp.Elastic
module Speculation = Cutfit_bsp.Speculation
module Violation = Cutfit_check.Violation
module Datasets = Cutfit_gen.Datasets
module Engine = Cutfit_workload.Engine
module Job = Cutfit_workload.Job
module Workload_check = Cutfit_workload.Workload_check
module Clock = Cutfit_obs.Clock

type outcome =
  | Passed
  | Violated of Violation.t list
  | Hung
  | Crashed of string

let outcome_name = function
  | Passed -> "passed"
  | Violated _ -> "violated"
  | Hung -> "hung"
  | Crashed _ -> "crashed"

let execute (sc : Scenario.t) =
  let cluster = Cluster.find sc.Scenario.cluster in
  let g = Datasets.generate (Datasets.find sc.Scenario.dataset) in
  let speculation =
    Option.map (fun t -> Speculation.config ~threshold:t ~seed:sc.Scenario.seed ()) sc.Scenario.speculate
  in
  let hetero =
    if sc.Scenario.hetero then
      Some (Elastic.draw_hetero ~seed:sc.Scenario.seed ~executors:cluster.Cluster.executors)
    else None
  in
  let report =
    Cutfit.Sanitize.check_run ~cluster ?checkpoint_every:sc.Scenario.checkpoint_every
      ?faults:sc.Scenario.faults ?speculation ?elastic:sc.Scenario.elastic ?hetero
      ?engine_domains:(match sc.Scenario.domains with [] -> None | ds -> Some ds)
      ?dynamic:sc.Scenario.mutations ~algorithm:sc.Scenario.algo g
  in
  let sanitize_vs = report.Cutfit.Sanitize.violations in
  let workload_vs =
    if sc.Scenario.jobs = 0 then []
    else begin
      let mix =
        match Job.find_mix sc.Scenario.mix with
        | Some m -> m
        | None -> invalid_arg ("Runner.execute: unknown mix " ^ sc.Scenario.mix)
      in
      let o = sc.Scenario.overload in
      let t = sc.Scenario.tenancy in
      let tenants = match t.Scenario.tenants with [] -> None | ts -> Some ts in
      let seed64 = Int64.of_int sc.Scenario.seed in
      let stream = Job.generate ~seed:seed64 ~jobs:sc.Scenario.jobs ?tenants mix in
      let run ?telemetry () =
        Engine.run ~cluster ~slots:sc.Scenario.slots ~policy:sc.Scenario.policy
          ?checkpoint_every:sc.Scenario.checkpoint_every ?faults:sc.Scenario.faults
          ?speculation ?queue_bound:o.Scenario.queue_bound ~shed_policy:o.Scenario.shed
          ?deadline:o.Scenario.deadline ?breaker_k:o.Scenario.breaker_k
          ~breaker_cooldown_s:o.Scenario.breaker_cooldown_s
          ?backpressure:o.Scenario.backpressure ?telemetry ?mutations:sc.Scenario.mutations
          ~mutate_every:sc.Scenario.mutate_every ~mutation_mode:sc.Scenario.mutation_mode
          ?scale_events:sc.Scenario.elastic ~tenant_weights:t.Scenario.tenants
          ?tenant_quota:t.Scenario.quota ~fairness:t.Scenario.fairness ~seed:seed64 stream
      in
      let _, _, vs = Workload_check.check_run ~label:("chaos " ^ Scenario.to_spec sc) run in
      vs
    end
  in
  let injected =
    match sc.Scenario.inject with
    | None -> []
    | Some rule -> [ Violation.v ~suite:"chaos" ~rule "fabricated violation injected by spec" ]
  in
  sanitize_vs @ workload_vs @ injected

(* One scenario, isolated in a forked child under a wall-clock budget:
   the campaign survives anything a scenario does — an unhandled
   exception, a segfault, an infinite loop — and a blown budget becomes
   a [Hung] verdict instead of a stuck campaign. The child writes its
   marshalled result to a pipe and leaves with [Unix._exit] (never
   [exit]: the inherited stdio buffers must not flush twice); the parent
   drains the pipe with [select] against the deadline, so a child
   producing more than the pipe's capacity can still finish. *)
let run ?(budget_s = 30.0) (sc : Scenario.t) : outcome =
  if not (Float.is_finite budget_s && budget_s > 0.0) then
    invalid_arg "Runner.run: budget_s must be finite and positive";
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result : (Violation.t list, string) result =
        match execute sc with
        | vs -> Ok vs
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc result [];
      flush oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let deadline = Clock.wall () +. budget_s in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        let left = deadline -. Clock.wall () in
        if left <= 0.0 then `Timeout
        else
          match Unix.select [ rd ] [] [] (Float.min 0.2 left) with
          | [], _, _ -> drain ()
          | _ -> (
              match Unix.read rd chunk 0 (Bytes.length chunk) with
              | 0 -> `Eof
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      let verdict = drain () in
      Unix.close rd;
      match verdict with
      | `Timeout ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Hung
      | `Eof -> (
          let _, status = Unix.waitpid [] pid in
          match status with
          | Unix.WEXITED 0 -> (
              match (Marshal.from_string (Buffer.contents buf) 0 : (Violation.t list, string) result) with
              | Ok [] -> Passed
              | Ok vs -> Violated vs
              | Error msg -> Crashed msg
              | exception _ -> Crashed "child produced no parseable result")
          | Unix.WEXITED c -> Crashed (Printf.sprintf "child exited with code %d" c)
          | Unix.WSIGNALED s -> Crashed (Printf.sprintf "child killed by signal %d" s)
          | Unix.WSTOPPED s -> Crashed (Printf.sprintf "child stopped by signal %d" s)))
