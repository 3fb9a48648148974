module Faults = Cutfit_bsp.Faults
module Elastic = Cutfit_bsp.Elastic
module Mutation = Cutfit_dynamic.Mutation
module Engine = Cutfit_workload.Engine
module Violation = Cutfit_check.Violation

(* --- rebuilding embedded configs after an edit ---------------------- *)

let set_faults (sc : Scenario.t) ~max_failures ~mode items : Scenario.t =
  match items with
  | [] -> { sc with Scenario.faults = None }
  | _ ->
      {
        sc with
        Scenario.faults =
          Some { Faults.items; seed = sc.Scenario.seed; max_failures; mode };
      }

let set_elastic (sc : Scenario.t) items : Scenario.t =
  match items with
  | [] -> { sc with Scenario.elastic = None }
  | _ ->
      {
        sc with
        Scenario.elastic = Some { Elastic.items; seed = sc.Scenario.seed };
      }

let set_mutations (sc : Scenario.t) items : Scenario.t =
  match items with
  | [] ->
      (* [mutevery]/[mutmode] print only with [mut=], so reset them with
         it — the canonical form stays round-trip exact. *)
      {
        sc with
        Scenario.mutations = None;
        mutate_every = Scenario.default.Scenario.mutate_every;
        mutation_mode = Engine.Priced;
      }
  | _ ->
      {
        sc with
        Scenario.mutations = Some { Mutation.items; seed = sc.Scenario.seed };
      }

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

(* --- single-event removals ------------------------------------------ *)

(* Every way to delete exactly one event or reset exactly one knob to
   its default. The shrinker's fixpoint runs over a superset of these,
   so a shrunk scenario is locally minimal in the acceptance-criteria
   sense: undoing any single one of these edits is what "removing one
   event" means, and none of them may preserve the failure. *)
let drop_one (sc : Scenario.t) : Scenario.t list =
  let acc = ref [] in
  let add c = acc := c :: !acc in
  (match sc.Scenario.faults with
  | None -> ()
  | Some c ->
      let items = c.Faults.items in
      let mf = c.Faults.max_failures and mode = c.Faults.mode in
      List.iteri (fun i _ -> add (set_faults sc ~max_failures:mf ~mode (remove_nth i items))) items;
      if mf <> 2 then add (set_faults sc ~max_failures:2 ~mode items);
      (match mode with
      | Faults.Rollback -> ()
      | _ -> add (set_faults sc ~max_failures:mf ~mode:Faults.Rollback items)));
  (match sc.Scenario.elastic with
  | None -> ()
  | Some c ->
      List.iteri (fun i _ -> add (set_elastic sc (remove_nth i c.Elastic.items))) c.Elastic.items);
  (match sc.Scenario.mutations with
  | None -> ()
  | Some c ->
      List.iteri
        (fun i _ -> add (set_mutations sc (remove_nth i c.Mutation.items)))
        c.Mutation.items;
      if sc.Scenario.mutate_every <> Scenario.default.Scenario.mutate_every then
        add { sc with Scenario.mutate_every = Scenario.default.Scenario.mutate_every };
      (match sc.Scenario.mutation_mode with
      | Engine.Priced -> ()
      | _ -> add { sc with Scenario.mutation_mode = Engine.Priced }));
  (match sc.Scenario.checkpoint_every with
  | None -> ()
  | Some _ -> add { sc with Scenario.checkpoint_every = None });
  (match sc.Scenario.speculate with
  | None -> ()
  | Some _ -> add { sc with Scenario.speculate = None });
  if sc.Scenario.hetero then add { sc with Scenario.hetero = false };
  let o = sc.Scenario.overload in
  (match o.Scenario.queue_bound with
  | None -> ()
  | Some _ -> add { sc with Scenario.overload = { o with Scenario.queue_bound = None } });
  (match o.Scenario.shed with
  | Engine.Reject -> ()
  | _ -> add { sc with Scenario.overload = { o with Scenario.shed = Engine.Reject } });
  (match o.Scenario.deadline with
  | None -> ()
  | Some _ -> add { sc with Scenario.overload = { o with Scenario.deadline = None } });
  (match o.Scenario.breaker_k with
  | None -> ()
  | Some _ -> add { sc with Scenario.overload = { o with Scenario.breaker_k = None } });
  if not (Float.equal o.Scenario.breaker_cooldown_s 60.0) then
    add { sc with Scenario.overload = { o with Scenario.breaker_cooldown_s = 60.0 } };
  (match o.Scenario.backpressure with
  | None -> ()
  | Some _ -> add { sc with Scenario.overload = { o with Scenario.backpressure = None } });
  let t = sc.Scenario.tenancy in
  (match t.Scenario.quota with
  | None -> ()
  | Some _ -> add { sc with Scenario.tenancy = { t with Scenario.quota = None } });
  if t.Scenario.fairness then
    add { sc with Scenario.tenancy = { t with Scenario.fairness = false } };
  (match t.Scenario.tenants with
  | [] -> ()
  | _ -> add { sc with Scenario.tenancy = { t with Scenario.tenants = [] } });
  (match sc.Scenario.domains with
  | [] -> ()
  | ds -> List.iteri (fun i _ -> add { sc with Scenario.domains = remove_nth i ds }) ds);
  (match sc.Scenario.inject with
  | None -> ()
  | Some _ -> add { sc with Scenario.inject = None });
  List.rev !acc

(* --- coarser moves --------------------------------------------------- *)

(* Whole-dimension drops and count-halvings, ordered biggest-cut-first:
   greedy delta debugging converges in far fewer oracle calls when the
   large cuts are attempted before the single-event ones. *)
let coarse (sc : Scenario.t) : Scenario.t list =
  let acc = ref [] in
  let add c = acc := c :: !acc in
  (match sc.Scenario.faults with
  | Some c when List.length c.Faults.items > 1 ->
      add (set_faults sc ~max_failures:2 ~mode:Faults.Rollback [])
  | _ -> ());
  (match sc.Scenario.elastic with
  | Some c when List.length c.Elastic.items > 1 -> add (set_elastic sc [])
  | _ -> ());
  (match sc.Scenario.mutations with
  | Some c when List.length c.Mutation.items > 1 -> add (set_mutations sc [])
  | _ -> ());
  if sc.Scenario.jobs > 0 then add { sc with Scenario.jobs = 0 };
  if sc.Scenario.jobs > 1 then add { sc with Scenario.jobs = sc.Scenario.jobs / 2 };
  add { sc with Scenario.overload = Scenario.no_overload };
  add { sc with Scenario.tenancy = Scenario.no_tenancy };
  (match sc.Scenario.domains with [] -> () | _ -> add { sc with Scenario.domains = [] });
  List.rev !acc

(* Refinements: simplify what survives — collapse windows to their first
   step, halve counts, walk the ambient dimensions back to defaults. *)
let refine (sc : Scenario.t) : Scenario.t list =
  let acc = ref [] in
  let add c = acc := c :: !acc in
  (match sc.Scenario.faults with
  | None -> ()
  | Some c ->
      let items = c.Faults.items in
      let mf = c.Faults.max_failures and mode = c.Faults.mode in
      List.iteri
        (fun i it ->
          let repl it' = add (set_faults sc ~max_failures:mf ~mode (List.mapi (fun j x -> if j = i then it' else x) items)) in
          match it with
          | Faults.Straggler { from_step; to_step; executor; factor } when to_step > from_step ->
              repl (Faults.Straggler { from_step; to_step = from_step; executor; factor })
          | Faults.Net { from_step; to_step; factor } when to_step > from_step ->
              repl (Faults.Net { from_step; to_step = from_step; factor })
          | Faults.Loss { step; executor; retries } when retries > 1 ->
              repl (Faults.Loss { step; executor; retries = 1 })
          | _ -> ())
        items);
  (match sc.Scenario.elastic with
  | None -> ()
  | Some c ->
      List.iteri
        (fun i it ->
          let repl it' = add (set_elastic sc (List.mapi (fun j x -> if j = i then it' else x) c.Elastic.items)) in
          match it with
          | Elastic.Join { step; count } when count > 1 -> repl (Elastic.Join { step; count = 1 })
          | Elastic.Leave { step; count } when count > 1 ->
              repl (Elastic.Leave { step; count = 1 })
          | Elastic.Preempt { step; retries } when retries > 1 ->
              repl (Elastic.Preempt { step; retries = 1 })
          | _ -> ())
        c.Elastic.items);
  (match sc.Scenario.mutations with
  | None -> ()
  | Some c ->
      List.iteri
        (fun i it ->
          let repl it' = add (set_mutations sc (List.mapi (fun j x -> if j = i then it' else x) c.Mutation.items)) in
          if it.Mutation.to_batch > it.Mutation.from_batch then
            repl { it with Mutation.to_batch = it.Mutation.from_batch };
          if it.Mutation.edges > 1 then repl { it with Mutation.edges = it.Mutation.edges / 2 })
        c.Mutation.items);
  if not (String.equal sc.Scenario.mix Scenario.default.Scenario.mix) then
    add { sc with Scenario.mix = Scenario.default.Scenario.mix };
  if not (String.equal sc.Scenario.cluster Scenario.default.Scenario.cluster) then
    add { sc with Scenario.cluster = Scenario.default.Scenario.cluster };
  if not (String.equal sc.Scenario.dataset Scenario.default.Scenario.dataset) then
    add { sc with Scenario.dataset = Scenario.default.Scenario.dataset };
  (match sc.Scenario.algo with
  | Cutfit.Advisor.Pagerank -> ()
  | _ -> add { sc with Scenario.algo = Cutfit.Advisor.Pagerank });
  if sc.Scenario.slots <> Scenario.default.Scenario.slots then
    add { sc with Scenario.slots = Scenario.default.Scenario.slots };
  (match sc.Scenario.policy with
  | Engine.Fifo -> ()
  | _ -> add { sc with Scenario.policy = Engine.Fifo });
  List.rev !acc

let dedup scs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun sc ->
      let key = Scenario.to_spec sc in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    scs

let candidates (sc : Scenario.t) : Scenario.t list =
  dedup (coarse sc @ drop_one sc @ refine sc)
  |> List.filter (fun c -> not (Scenario.equal c sc))

(* Greedy delta debugging to a fixpoint: take the first candidate the
   oracle still fails, restart from it. Every move strictly reduces a
   well-founded measure (events + non-default knobs + numeric sizes), so
   the fixpoint exists; because {!candidates} is a superset of
   {!drop_one}, the fixpoint is locally minimal — removing any single
   remaining event makes the failure disappear. *)
let shrink ?(max_steps = 10_000) ~oracle (sc : Scenario.t) : Scenario.t =
  let rec go sc budget =
    if budget <= 0 then sc
    else
      match List.find_opt oracle (candidates sc) with
      | Some c -> go c (budget - 1)
      | None -> sc
  in
  go sc max_steps

(* --- failure classes: what "still fails" means ----------------------- *)

(* A shrink step must preserve the *same* failure, not trade it for a
   different one — otherwise the minimized repro demonstrates some other
   bug. Violations are classed by their first (suite, rule); crashes by
   their message head. [Hung] is never a failure class: a scenario that
   merely outgrew the budget proves nothing. *)
type failure_class =
  | Violation_class of string * string  (** (suite, rule) of the first violation *)
  | Crash_class of string

let class_name = function
  | Violation_class (suite, rule) -> suite ^ "/" ^ rule
  | Crash_class msg -> "crash: " ^ msg

let crash_head msg =
  let head = match String.index_opt msg '\n' with None -> msg | Some i -> String.sub msg 0 i in
  if String.length head <= 80 then head else String.sub head 0 80

let classify : Runner.outcome -> failure_class option = function
  | Runner.Passed | Runner.Hung -> None
  | Runner.Violated (v :: _) -> Some (Violation_class (v.Violation.suite, v.Violation.rule))
  | Runner.Violated [] -> None
  | Runner.Crashed msg -> Some (Crash_class (crash_head msg))

let class_equal a b =
  match (a, b) with
  | Violation_class (s1, r1), Violation_class (s2, r2) -> String.equal s1 s2 && String.equal r1 r2
  | Crash_class m1, Crash_class m2 -> String.equal m1 m2
  | _ -> false

let oracle_for ?budget_s (cls : failure_class) (sc : Scenario.t) : bool =
  match classify (Runner.run ?budget_s sc) with
  | Some c -> class_equal c cls
  | None -> false
