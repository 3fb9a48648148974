module Advisor = Cutfit.Advisor
module Cluster = Cutfit_bsp.Cluster
module Faults = Cutfit_bsp.Faults
module Elastic = Cutfit_bsp.Elastic
module Spec_error = Cutfit_bsp.Spec_error
module Speculation = Cutfit_bsp.Speculation
module Mutation = Cutfit_dynamic.Mutation
module Engine = Cutfit_workload.Engine
module Job = Cutfit_workload.Job
module Datasets = Cutfit_gen.Datasets

type overload = {
  queue_bound : int option;
  shed : Engine.shed_policy;
  deadline : Engine.deadline option;
  breaker_k : int option;
  breaker_cooldown_s : float;
  backpressure : int option;
}

type tenancy = { tenants : (string * float) list; fairness : bool; quota : int option }

type t = {
  seed : int;
  algo : Advisor.algorithm;
  dataset : string;
  cluster : string;
  jobs : int;
  mix : string;
  slots : int;
  policy : Engine.policy;
  faults : Faults.config option;
  checkpoint_every : int option;
  speculate : float option;
  elastic : Elastic.config option;
  hetero : bool;
  mutations : Mutation.config option;
  mutate_every : int;
  mutation_mode : Engine.mutation_mode;
  overload : overload;
  tenancy : tenancy;
  domains : int list;
  inject : string option;
}

let no_overload =
  {
    queue_bound = None;
    shed = Engine.Reject;
    deadline = None;
    breaker_k = None;
    breaker_cooldown_s = 60.0;
    backpressure = None;
  }

let no_tenancy = { tenants = []; fairness = false; quota = None }

let default =
  {
    seed = 1;
    algo = Advisor.Pagerank;
    dataset = "roadnet_pa";
    cluster = "i";
    jobs = 8;
    mix = "uniform";
    slots = 2;
    policy = Engine.Fifo;
    faults = None;
    checkpoint_every = None;
    speculate = None;
    elastic = None;
    hetero = false;
    mutations = None;
    mutate_every = 4;
    mutation_mode = Engine.Priced;
    overload = no_overload;
    tenancy = no_tenancy;
    domains = [];
    inject = None;
  }

let dsl = "chaos"
let fail fmt = Spec_error.fail ~dsl fmt
let fail_key ~key fmt = Spec_error.fail ~dsl ~item:key fmt

(* --- printing ------------------------------------------------------- *)

let deadline_lit = function
  | Engine.Absolute s -> "a" ^ Spec_error.float_lit s
  | Engine.Factor f -> "f" ^ Spec_error.float_lit f

let tenants_lit ts =
  String.concat "+"
    (List.map
       (fun (n, w) -> if Float.equal w 1.0 then n else Printf.sprintf "%s:%s" n (Spec_error.float_lit w))
       ts)

let domains_lit ds = String.concat "+" (List.map string_of_int ds)

(* Canonical compact form: keys in a fixed order, every field at its
   default omitted, embedded DSL configs re-printed through their own
   canonical [to_spec]. [of_spec (to_spec sc)] is structurally [sc] (the
   guarantee the shrinker and the repro artifacts rely on), and two
   scenarios are equal iff their specs are equal strings. *)
let to_spec sc =
  let kvs = ref [] in
  let put key value = kvs := (key, value) :: !kvs in
  if sc.seed <> default.seed then put "seed" (string_of_int sc.seed);
  (match sc.algo with
  | Advisor.Pagerank -> ()
  | a -> put "algo" (Advisor.algorithm_name a));
  if not (String.equal sc.dataset default.dataset) then put "data" sc.dataset;
  if not (String.equal sc.cluster default.cluster) then put "cluster" sc.cluster;
  if sc.jobs <> default.jobs then put "jobs" (string_of_int sc.jobs);
  if not (String.equal sc.mix default.mix) then put "mix" sc.mix;
  if sc.slots <> default.slots then put "slots" (string_of_int sc.slots);
  (match sc.policy with Engine.Fifo -> () | p -> put "policy" (Engine.policy_name p));
  (match sc.faults with
  | None -> ()
  | Some c ->
      put "faults" (Faults.to_spec c.Faults.items);
      if c.Faults.max_failures <> 2 then put "maxfail" (string_of_int c.Faults.max_failures);
      (match c.Faults.mode with
      | Faults.Rollback -> ()
      | m -> put "fmode" (Faults.mode_name m)));
  (match sc.checkpoint_every with None -> () | Some k -> put "ckpt" (string_of_int k));
  (match sc.speculate with None -> () | Some t -> put "speculate" (Spec_error.float_lit t));
  (match sc.elastic with
  | None -> ()
  | Some c -> put "scale" (Elastic.to_spec c.Elastic.items));
  if sc.hetero then put "hetero" "1";
  (match sc.mutations with
  | None -> ()
  | Some c ->
      put "mut" (Mutation.to_spec c.Mutation.items);
      if sc.mutate_every <> default.mutate_every then
        put "mutevery" (string_of_int sc.mutate_every);
      (match sc.mutation_mode with
      | Engine.Priced -> ()
      | m -> put "mutmode" (Engine.mutation_mode_name m)));
  (match sc.overload.queue_bound with None -> () | Some b -> put "qbound" (string_of_int b));
  (match sc.overload.shed with
  | Engine.Reject -> ()
  | p -> put "shed" (Engine.shed_policy_name p));
  (match sc.overload.deadline with None -> () | Some d -> put "deadline" (deadline_lit d));
  (match sc.overload.breaker_k with None -> () | Some k -> put "breaker" (string_of_int k));
  if not (Float.equal sc.overload.breaker_cooldown_s 60.0) then
    put "cooldown" (Spec_error.float_lit sc.overload.breaker_cooldown_s);
  (match sc.overload.backpressure with
  | None -> ()
  | Some w -> put "backpressure" (string_of_int w));
  (match sc.tenancy.tenants with [] -> () | ts -> put "tenants" (tenants_lit ts));
  if sc.tenancy.fairness then put "fairness" "1";
  (match sc.tenancy.quota with None -> () | Some q -> put "quota" (string_of_int q));
  (match sc.domains with [] -> () | ds -> put "domains" (domains_lit ds));
  (match sc.inject with None -> () | Some rule -> put "inject" rule);
  match !kvs with
  | [] -> "default"
  | l -> String.concat ";" (List.rev_map (fun (k, v) -> k ^ "=" ^ v) l)

let equal a b = String.equal (to_spec a) (to_spec b)

(* --- parsing -------------------------------------------------------- *)

let parse_positive ~key s =
  let n = Spec_error.int ~dsl ~item:key s in
  if n < 1 then fail_key ~key "must be >= 1 (got %d)" n;
  n

let parse_deadline ~key s =
  if String.length s < 2 then fail_key ~key "expected aSECONDS or fFACTOR, got %S" s;
  let v = Spec_error.float ~dsl ~item:key (String.sub s 1 (String.length s - 1)) in
  if v <= 0.0 then fail_key ~key "deadline value must be positive (got %s)" (Spec_error.float_lit v);
  match s.[0] with
  | 'a' -> Engine.Absolute v
  | 'f' -> Engine.Factor v
  | c -> fail_key ~key "unknown deadline kind %C (a = absolute, f = factor)" c

(* [NAME[:W]+NAME[:W]...] and [N+N...]: '+'-separated lists. *)
let plus_list ~key ~what f s = Spec_error.list ~dsl ~item:key ~sep:'+' ~what f s

let parse_tenants ~key s =
  plus_list ~key ~what:"tenants"
    (fun e ->
      let name, weight = Spec_error.entry ~dsl ~item:key e in
      (name, Option.value weight ~default:1.0))
    s

let parse_domains ~key s = plus_list ~key ~what:"domain counts" (parse_positive ~key) s

(* Raw DSL sub-spec values are held as strings until every key is read:
   the scenario seed may appear after them, and the embedded configs
   must be built with it. *)
type pending = {
  mutable p_faults : string option;
  mutable p_maxfail : int option;
  mutable p_fmode : Faults.mode option;
  mutable p_scale : string option;
  mutable p_mut : string option;
  mutable p_mutevery : int option;
  mutable p_mutmode : Engine.mutation_mode option;
}

let of_spec raw =
  let raw = String.trim raw in
  if String.equal raw "default" then default
  else begin
    let sc = ref default in
    let p =
      {
        p_faults = None;
        p_maxfail = None;
        p_fmode = None;
        p_scale = None;
        p_mut = None;
        p_mutevery = None;
        p_mutmode = None;
      }
    in
    let seen = Hashtbl.create 16 in
    let apply kv =
      let key, value =
        match String.index_opt kv '=' with
        | None -> fail "expected KEY=VALUE, got %S" kv
        | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      in
      if value = "" then fail_key ~key "empty value";
      if Hashtbl.mem seen key then fail_key ~key "duplicate key";
      Hashtbl.replace seen key ();
      match key with
      | "seed" -> sc := { !sc with seed = Spec_error.int ~dsl ~item:key value }
      | "algo" -> (
          match Advisor.algorithm_of_string value with
          | Some a -> sc := { !sc with algo = a }
          | None -> fail_key ~key "unknown algorithm %S (PR, CC, TR, SSSP)" value)
      | "data" -> (
          match Datasets.find value with
          | _ -> sc := { !sc with dataset = value }
          | exception Not_found ->
              fail_key ~key "unknown dataset %S (expected one of: %s)" value
                (String.concat ", " Datasets.names))
      | "cluster" -> (
          match Cluster.find value with
          | _ -> sc := { !sc with cluster = value }
          | exception Not_found -> fail_key ~key "unknown cluster configuration %S (i..iv)" value)
      | "jobs" ->
          let n = Spec_error.int ~dsl ~item:key value in
          if n < 0 then fail_key ~key "must be >= 0 (got %d)" n;
          sc := { !sc with jobs = n }
      | "mix" -> (
          match Job.find_mix value with
          | Some _ -> sc := { !sc with mix = value }
          | None ->
              fail_key ~key "unknown mix %S (expected one of: %s)" value
                (String.concat ", " Job.mix_names))
      | "slots" -> sc := { !sc with slots = parse_positive ~key value }
      | "policy" -> (
          match Engine.policy_of_string value with
          | Some pol -> sc := { !sc with policy = pol }
          | None -> fail_key ~key "unknown policy %S (fifo, sjf)" value)
      | "faults" -> p.p_faults <- Some value
      | "maxfail" -> p.p_maxfail <- Some (parse_positive ~key value)
      | "fmode" -> (
          match Faults.mode_of_name value with
          | m -> p.p_fmode <- Some m
          | exception Spec_error.Error e -> fail_key ~key "%s" e.Spec_error.reason)
      | "ckpt" -> sc := { !sc with checkpoint_every = Some (parse_positive ~key value) }
      | "speculate" -> (
          let t = Spec_error.float ~dsl ~item:key value in
          match Speculation.config ~threshold:t () with
          | _ -> sc := { !sc with speculate = Some t }
          | exception Spec_error.Error e -> fail_key ~key "%s" e.Spec_error.reason)
      | "scale" -> p.p_scale <- Some value
      | "hetero" ->
          if not (String.equal value "1") then fail_key ~key "expected hetero=1";
          sc := { !sc with hetero = true }
      | "mut" -> p.p_mut <- Some value
      | "mutevery" -> p.p_mutevery <- Some (parse_positive ~key value)
      | "mutmode" -> (
          match Engine.mutation_mode_of_string value with
          | Some m -> p.p_mutmode <- Some m
          | None -> fail_key ~key "unknown mutation mode %S (priced, refresh, rebuild)" value)
      | "qbound" ->
          sc :=
            { !sc with overload = { !sc.overload with queue_bound = Some (parse_positive ~key value) } }
      | "shed" -> (
          match Engine.shed_policy_of_string value with
          | Some s -> sc := { !sc with overload = { !sc.overload with shed = s } }
          | None -> fail_key ~key "unknown shed policy %S (reject, drop-oldest)" value)
      | "deadline" ->
          sc := { !sc with overload = { !sc.overload with deadline = Some (parse_deadline ~key value) } }
      | "breaker" ->
          sc :=
            { !sc with overload = { !sc.overload with breaker_k = Some (parse_positive ~key value) } }
      | "cooldown" ->
          let s = Spec_error.float ~dsl ~item:key value in
          if s < 0.0 then fail_key ~key "must be >= 0 (got %s)" (Spec_error.float_lit s);
          sc := { !sc with overload = { !sc.overload with breaker_cooldown_s = s } }
      | "backpressure" ->
          let w = Spec_error.int ~dsl ~item:key value in
          if w < 0 then fail_key ~key "must be >= 0 (got %d)" w;
          sc := { !sc with overload = { !sc.overload with backpressure = Some w } }
      | "tenants" ->
          sc := { !sc with tenancy = { !sc.tenancy with tenants = parse_tenants ~key value } }
      | "fairness" ->
          if not (String.equal value "1") then fail_key ~key "expected fairness=1";
          sc := { !sc with tenancy = { !sc.tenancy with fairness = true } }
      | "quota" ->
          sc := { !sc with tenancy = { !sc.tenancy with quota = Some (parse_positive ~key value) } }
      | "domains" -> sc := { !sc with domains = parse_domains ~key value }
      | "inject" -> sc := { !sc with inject = Some value }
      | _ -> fail_key ~key "unknown key"
    in
    List.iter apply (Spec_error.items ~sep:';' raw);
    let sc = !sc in
    (* Build the embedded DSL configs last: they are keyed on the
       scenario seed. *)
    let faults =
      match p.p_faults with
      | None ->
          (match p.p_maxfail with Some _ -> fail "maxfail given without faults" | None -> ());
          (match p.p_fmode with Some _ -> fail "fmode given without faults" | None -> ());
          None
      | Some spec ->
          let max_failures = Option.value p.p_maxfail ~default:2 in
          let mode = Option.value p.p_fmode ~default:Faults.Rollback in
          Some (Faults.config ~seed:sc.seed ~max_failures ~mode spec)
    in
    let elastic =
      match p.p_scale with
      | None -> None
      | Some spec -> Some (Elastic.config ~seed:sc.seed spec)
    in
    let mutations =
      match p.p_mut with
      | None ->
          (match p.p_mutevery with Some _ -> fail "mutevery given without mut" | None -> ());
          (match p.p_mutmode with Some _ -> fail "mutmode given without mut" | None -> ());
          None
      | Some spec -> Some (Mutation.config ~seed:sc.seed spec)
    in
    {
      sc with
      faults;
      elastic;
      mutations;
      mutate_every = Option.value p.p_mutevery ~default:default.mutate_every;
      mutation_mode = Option.value p.p_mutmode ~default:default.mutation_mode;
    }
  end
