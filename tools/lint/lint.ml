(* Determinism and domain-safety linter for the cutfit tree.

   Parses every .ml/.mli under the given directories with compiler-libs
   and enforces the project rules that keep the simulator's measurements
   trustworthy and the multicore kernels deterministic:

   - wall-clock      no [Unix.gettimeofday]/[Sys.time]/[Random.self_init]
                     and friends outside the allowlisted clock module
                     (lib/obs/clock.ml);
   - hashtbl-order   no order-dependent [Hashtbl.iter]/[Hashtbl.fold]: a
                     fold whose combiner is commutative-associative on
                     the accumulator is accepted, anything else needs an
                     explicit [(* lint: order-independent *)] waiver;
   - poly-compare    (lib/ only) no [Hashtbl.hash], and no polymorphic
                     [compare]/[=]/[<]/... applied to a syntactically
                     structured argument — use a typed comparator;
   - no-print        (lib/ only) no direct stdout/stderr printing;
                     output goes through Cutfit_obs sinks or formatter
                     arguments.

   Domain-safety rules, driven by a small interprocedural effect
   analysis (every function is classified pure / local-mutation /
   shared-mutation by propagating effects through the call graph; see
   docs/ANALYSIS.md):

   - par-shared-mutation   a closure passed to [Par_exec.run]/[iter]
                           (or code reachable from one) writes a
                           captured ref, a mutable field, a Hashtbl or
                           other shared container, or calls a function
                           classified shared-mutating;
   - item-owned            an [Array]/[Bigarray]/[Bytes] element write
                           inside such a closure whose index is not
                           derived from the item parameter and whose
                           target is not selected by the worker or item
                           parameter; waiverable with
                           [(* lint: item-owned *)] for proven-disjoint
                           cases;
   - domain-outside-runtime  [Domain.spawn]/[Domain.join]/[Mutex]/
                           [Condition] anywhere outside
                           lib/bsp/par_exec.ml;
   - atomic-rmw            [Atomic.set x (... Atomic.get x ...)] — a
                           non-atomic read-modify-write; use
                           [fetch_and_add]/[compare_and_set];
   - parse-error           a file the linter cannot parse;
   - unused-export         a .mli [val] never referenced by module name
                           anywhere in the tree; delete the export (not
                           waivable: dead surface is removed, not kept).
                           Directories passed with [--use-only] count as
                           callers. The @lint rule passes test/ among
                           them while a few lib/ exports are test hooks;
                           tools/verify.sh lints again without test/ and
                           accepts only the hooks it lists, and once
                           that list is empty @lint drops test/ too.

   Exit status: 0 when clean, 1 otherwise. [--json FILE] also writes
   the findings as a JSON artifact. [--effects] dumps the effect
   classification. [--self-test DIR] runs the rule engine over fixture
   snippets that each declare the finding they must produce. *)

type rule =
  | Wall_clock
  | Hashtbl_order
  | Poly_compare
  | No_print
  | Par_shared
  | Item_owned
  | Domain_outside
  | Atomic_rmw
  | Parse_error
  | Unused_export

let rule_name = function
  | Wall_clock -> "wall-clock"
  | Hashtbl_order -> "hashtbl-order"
  | Poly_compare -> "poly-compare"
  | No_print -> "no-print"
  | Par_shared -> "par-shared-mutation"
  | Item_owned -> "item-owned"
  | Domain_outside -> "domain-outside-runtime"
  | Atomic_rmw -> "atomic-rmw"
  | Parse_error -> "parse-error"
  | Unused_export -> "unused-export"

let rule_of_name = function
  | "wall-clock" -> Some Wall_clock
  | "hashtbl-order" | "order-independent" -> Some Hashtbl_order
  | "poly-compare" -> Some Poly_compare
  | "no-print" -> Some No_print
  | "par-shared-mutation" -> Some Par_shared
  | "item-owned" -> Some Item_owned
  | "domain-outside-runtime" -> Some Domain_outside
  | "atomic-rmw" -> Some Atomic_rmw
  | "parse-error" -> Some Parse_error
  | "unused-export" -> Some Unused_export
  | _ -> None

type finding = { file : string; line : int; rule : rule; msg : string }

(* --- rule tables --- *)

let wall_clock_idents =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.gmtime";
    "Unix.localtime";
    "Unix.times";
    "Sys.time";
    "Random.self_init";
    "Random.State.make_self_init";
  ]

let print_idents =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "Format.print_string";
    "Format.print_newline";
    "Fmt.pr";
    "Fmt.epr";
    "print_string";
    "print_endline";
    "print_int";
    "print_float";
    "print_char";
    "print_bytes";
    "print_newline";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "Stdlib.print_string";
    "Stdlib.print_endline";
    "Stdlib.print_newline";
  ]

let poly_compare_fns = [ "compare"; "Stdlib.compare"; "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Combiners that make a fold accumulator provably order-insensitive:
   commutative and associative, so any visit order yields the same
   result. *)
let order_insensitive_ops = [ "max"; "min"; "+"; "+."; "*"; "*."; "land"; "lor"; "lxor" ]

(* Element-writing containers: an application of [<Mod>.set] or
   [<Mod>.unsafe_set] with >= 3 arguments (target, indices..., value).
   [a.(i) <- v] and [b.{i} <- v] desugar to exactly these paths. *)
let elem_write_heads = [ "Array"; "Bytes"; "String"; "Array1"; "Array2"; "Array3" ]

(* In-place container mutators: writing through one of these to a
   non-local target is shared mutation. *)
let container_mutators =
  [
    ("Hashtbl", "add");
    ("Hashtbl", "replace");
    ("Hashtbl", "remove");
    ("Hashtbl", "reset");
    ("Hashtbl", "clear");
    ("Hashtbl", "filter_map_inplace");
    ("Queue", "add");
    ("Queue", "push");
    ("Queue", "pop");
    ("Queue", "take");
    ("Queue", "clear");
    ("Queue", "transfer");
    ("Stack", "push");
    ("Stack", "pop");
    ("Stack", "clear");
    ("Buffer", "add_string");
    ("Buffer", "add_char");
    ("Buffer", "add_bytes");
    ("Buffer", "add_substring");
    ("Buffer", "clear");
    ("Buffer", "reset");
    ("Buffer", "truncate");
  ]

(* Bulk mutators: whole-range writes to the first argument. *)
let bulk_mutators =
  [
    ("Array", "fill");
    ("Array", "blit");
    ("Array", "sort");
    ("Array", "fast_sort");
    ("Array", "stable_sort");
    ("Bytes", "fill");
    ("Bytes", "blit");
    ("Bytes", "blit_string");
    ("Array1", "fill");
    ("Array1", "blit");
    ("Array2", "fill");
    ("Array3", "fill");
  ]

(* Shadow-recorder entry points sanctioned inside parallel closures:
   Ownership's records go to worker-owned logs by design — that is the
   whole point of the recorder — so shadowed kernels may hand an item's
   log over without tripping par-shared-mutation. *)
let sanctioned_in_par = [ ("Ownership", "writes"); ("Ownership", "reads") ]

(* --- small helpers --- *)

let path_components file = String.split_on_char '/' file
let in_lib file = List.mem "lib" (path_components file)

let clock_allowlisted file =
  match List.rev (path_components file) with "clock.ml" :: "obs" :: _ -> true | _ -> false

(* lib/bsp/par_exec.ml is the one sanctioned home of raw domain
   plumbing — and, being the runtime itself, its internal closures ARE
   the scheduler, so the par-closure rules skip it too. *)
let par_runtime_file file =
  match List.rev (path_components file) with "par_exec.ml" :: "bsp" :: _ -> true | _ -> false

let line_of_loc (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* Waivers: a comment [(* lint: <rule> ... *)] suppresses findings of
   that rule on its own line and on the following line. *)
let waiver_re = Str.regexp {|(\*[ \t]*lint:[ \t]*\([a-z-]+\)|}

let waivers_of_source source =
  let table = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      match
        try
          ignore (Str.search_forward waiver_re line 0);
          rule_of_name (Str.matched_group 1 line)
        with Not_found -> None
      with
      | Some rule ->
          Hashtbl.replace table (i + 1, rule) ();
          Hashtbl.replace table (i + 2, rule) ()
      | None -> ())
    (String.split_on_char '\n' source);
  fun line rule -> Hashtbl.mem table (line, rule)

open Parsetree

let rec peel_params e =
  match e.pexp_desc with
  | Pexp_fun (label, _, pat, body) ->
      let rest, core = peel_params body in
      ((label, pat) :: rest, core)
  | _ -> ([], e)

let pat_var p = match p.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None

(* All variable names bound by a pattern (tuples, aliases, ...). *)
let pat_bound_vars pat =
  let acc = ref [] in
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> acc := txt :: !acc
    | Ppat_alias (p, { txt; _ }) ->
        acc := txt :: !acc;
        go p
    | Ppat_tuple ps -> List.iter go ps
    | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> go p
    | Ppat_record (fields, _) -> List.iter (fun (_, p) -> go p) fields
    | Ppat_array ps -> List.iter go ps
    | Ppat_or (a, b) ->
        go a;
        go b
    | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p | Ppat_exception p -> go p
    | _ -> ()
  in
  go pat;
  !acc

let is_ident name e =
  match e.pexp_desc with Pexp_ident { txt = Longident.Lident n; _ } -> n = name | _ -> false

(* Every single-component identifier mentioned anywhere in [e] — the
   "does this expression mention x" primitive of the derivation
   analysis. *)
let idents_of_expr e =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } -> acc := n :: !acc
          | _ -> ());
          default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  !acc

module StrSet = Set.Make (String)

let mentions set e = List.exists (fun n -> StrSet.mem n set) (idents_of_expr e)
let add_names set names = List.fold_left (fun s n -> StrSet.add n s) set names

(* The syntactic head of a write target: [counts] in [counts.(v) <- x],
   [t] in [t.field <- x], also through an element read ([rows] in
   [rows.(w).(v) <- x]). *)
let rec head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> Some n
  | Pexp_field (e0, _) -> head_ident e0
  | Pexp_constraint (e0, _) -> head_ident e0
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, a0) :: _) -> (
      match List.rev (Longident.flatten txt) with
      | ("get" | "unsafe_get") :: _ -> head_ident a0
      | _ -> None)
  | _ -> None

(* [fun _ v acc -> op x acc] (either argument order) with a commutative
   associative [op] is order-insensitive: the fold computes a bag
   reduction. Anything else — consing, subtraction, side effects — is
   conservatively rejected. *)
let fold_fn_order_insensitive fn =
  let params, body = peel_params fn in
  match params with
  | [ _; _; (_, acc_pat) ] -> (
      match pat_var acc_pat with
      | None -> false
      | Some acc -> (
          match body.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, args)
            when List.mem op order_insensitive_ops ->
              let args = List.map snd args in
              List.length args = 2 && List.exists (is_ident acc) args
          | _ -> false))
  | _ -> false

(* A constructor carrying only a constant payload (e.g. [Some 0])
   compares like a scalar; only genuinely structured payloads make
   polymorphic comparison suspicious. *)
let rec structured_literal e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_variant (_, Some payload) | Pexp_construct (_, Some payload) ->
      structured_literal payload || not (is_constant payload)
  | _ -> false

and is_constant e = match e.pexp_desc with Pexp_constant _ -> true | _ -> false

(* --- analysis context ------------------------------------------------

   One parse of the whole tree, shared by every rule: per-file module
   aliases, every function definition (top-level ones addressable as
   (Module, name) across files, let-bound ones by name and position
   within their file), per-file waiver tables, and the effect
   classification computed over the call graph. *)

type fndef = {
  def_file : string;
  def_line : int;
  params : (Asttypes.arg_label * pattern) list;
  body : expression;
}

type ctx = {
  aliases : (string, (string, string list) Hashtbl.t) Hashtbl.t;
  file_defs : (string, (string, fndef list) Hashtbl.t) Hashtbl.t;
  global_defs : (string * string, fndef) Hashtbl.t;
  effects : (string * string, int) Hashtbl.t;
      (* 0 = pure, 1 = local-mutation, 2 = shared-mutation *)
  waived : (string, int -> rule -> bool) Hashtbl.t;
}

let fresh_ctx () =
  {
    aliases = Hashtbl.create 64;
    file_defs = Hashtbl.create 64;
    global_defs = Hashtbl.create 256;
    effects = Hashtbl.create 256;
    waived = Hashtbl.create 64;
  }

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Expand a leading local module alias: with [module B1 = Bigarray.Array1]
   in scope, [B1.unsafe_set] becomes [Bigarray.Array1.unsafe_set]. *)
let expand_path ctx file lid =
  let parts = Longident.flatten lid in
  match parts with
  | head :: tl -> (
      match Hashtbl.find_opt ctx.aliases file with
      | Some table -> (
          match Hashtbl.find_opt table head with Some target -> target @ tl | None -> parts)
      | None -> parts)
  | [] -> parts

(* (Module, value) key of a call path: the last two components, or the
   caller's own module for an unqualified name. *)
let callee_key ~self_module parts =
  match List.rev parts with
  | [ f ] -> Some (self_module, f)
  | f :: m :: _ -> Some (m, f)
  | [] -> None

let last_two parts = match List.rev parts with f :: m :: _ -> Some (m, f) | _ -> None

let is_elem_write parts nargs =
  nargs >= 3
  &&
  match last_two parts with
  | Some (m, ("set" | "unsafe_set")) -> List.mem m elem_write_heads
  | _ -> false

let is_container_mutator parts =
  match last_two parts with Some key -> List.mem key container_mutators | None -> false

let is_bulk_mutator parts =
  match last_two parts with Some key -> List.mem key bulk_mutators | None -> false

let is_sanctioned_in_par parts =
  match last_two parts with Some key -> List.mem key sanctioned_in_par | None -> false

let is_atomic parts = match List.rev parts with _ :: "Atomic" :: _ -> true | _ -> false

(* Unqualified (or Stdlib-qualified) ref writes only: [Metric.incr] and
   friends are ordinary calls, not Stdlib's ref primitives. *)
let is_ref_write parts =
  match parts with
  | [ (":=" | "incr" | "decr") ] | [ "Stdlib"; (":=" | "incr" | "decr") ] -> true
  | _ -> false

let all_but_last xs = match List.rev xs with _ :: tl -> List.rev tl | [] -> []

(* --- context construction --- *)

let collect_aliases structure =
  let table = Hashtbl.create 8 in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> Hashtbl.replace table name (Longident.flatten txt)
          | _ -> ())
      | _ -> ())
    structure;
  table

let collect_defs ~file structure =
  let file_table : (string, fndef list) Hashtbl.t = Hashtbl.create 32 in
  let top_table : (string, fndef) Hashtbl.t = Hashtbl.create 16 in
  let def_of_binding vb =
    match (pat_var vb.pvb_pat, vb.pvb_expr.pexp_desc) with
    | Some name, Pexp_fun _ ->
        let params, body = peel_params vb.pvb_expr in
        Some (name, { def_file = file; def_line = line_of_loc vb.pvb_loc; params; body })
    | _ -> None
  in
  let add_file name def =
    let prev = Option.value ~default:[] (Hashtbl.find_opt file_table name) in
    Hashtbl.replace file_table name (def :: prev)
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match def_of_binding vb with
              | Some (name, def) ->
                  Hashtbl.replace top_table name def;
                  add_file name def
              | None -> ())
            vbs
      | _ -> ())
    structure;
  (* Nested let-bound functions are addressable by name and position
     within the file: closure idents like [scatter] passed straight to
     Par_exec.iter resolve through this. *)
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match def_of_binding vb with
                  | Some (name, def) -> add_file name def
                  | None -> ())
                vbs
          | _ -> ());
          default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.structure it structure;
  (file_table, top_table)

(* --- effect classification ------------------------------------------

   Direct effect: 0 (pure) unless the body writes let-bound state (1)
   or state received, captured or global (2). Calls are edges; the
   fixpoint joins a callee's shared-mutation into its callers — local
   mutation is masked at the call boundary, since a function that only
   mutates its own allocations is observationally pure. *)

let direct_effect ctx ~file body =
  let eff = ref 0 and callees = ref [] in
  let join v = if v > !eff then eff := v in
  let self_module = module_name_of_file file in
  let rec walk locals e =
    let locality target =
      match head_ident target with Some n when StrSet.mem n locals -> 1 | _ -> 2
    in
    match e.pexp_desc with
    | Pexp_let (rf, vbs, rest) ->
        let names = List.concat_map (fun vb -> pat_bound_vars vb.pvb_pat) vbs in
        let rhs_locals =
          match rf with
          | Asttypes.Recursive -> add_names locals names
          | Asttypes.Nonrecursive -> locals
        in
        List.iter (fun vb -> walk rhs_locals vb.pvb_expr) vbs;
        walk (add_names locals names) rest
    | Pexp_for (pat, lo, hi, _, fbody) ->
        walk locals lo;
        walk locals hi;
        let locals = match pat_var pat with Some n -> StrSet.add n locals | None -> locals in
        walk locals fbody
    | Pexp_fun (_, dflt, _, fbody) ->
        (* Lambda params are NOT locals: mutating state received as an
           argument is shared mutation from the caller's view. *)
        Option.iter (walk locals) dflt;
        walk locals fbody
    | Pexp_setfield (target, _, value) ->
        join (locality target);
        walk locals target;
        walk locals value
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let parts = expand_path ctx file txt in
        let nargs = List.length args in
        (match args with
        | (_, target) :: _ when is_ref_write parts -> join (locality target)
        | (_, target) :: _ when is_elem_write parts nargs -> join (locality target)
        | (_, target) :: _ when is_container_mutator parts || is_bulk_mutator parts ->
            join (locality target)
        | _ when is_atomic parts ->
            (* Atomics are the sanctioned cross-domain primitive; their
               misuse is atomic-rmw's business, not the lattice's. *)
            ()
        | _ -> (
            match callee_key ~self_module parts with
            | Some key -> callees := key :: !callees
            | None -> ()));
        List.iter (fun (_, a) -> walk locals a) args
    | _ ->
        let default = Ast_iterator.default_iterator in
        let it = { default with Ast_iterator.expr = (fun _ child -> walk locals child) } in
        default.Ast_iterator.expr it e
  in
  walk StrSet.empty body;
  (!eff, !callees)

let compute_effects ctx =
  let edges = Hashtbl.create 256 in
  Hashtbl.iter
    (fun key (def : fndef) ->
      let eff, callees = direct_effect ctx ~file:def.def_file def.body in
      Hashtbl.replace ctx.effects key eff;
      Hashtbl.replace edges key callees)
    ctx.global_defs;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun key callees ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt ctx.effects key) in
        if
          cur < 2
          && List.exists (fun k -> Hashtbl.find_opt ctx.effects k = Some 2) callees
        then begin
          Hashtbl.replace ctx.effects key 2;
          changed := true
        end)
      edges
  done

let effect_name = function 0 -> "pure" | 1 -> "local-mutation" | _ -> "shared-mutation"

(* --- definition resolution ---

   Local idents resolve to the nearest preceding definition of that
   name in the same file (a file may hold several nested [scatter]s —
   one per kernel); qualified idents resolve to the top-level table
   keyed by the last two path components. *)

let resolve_def ctx ~file ~line parts =
  let pick ds =
    List.fold_left
      (fun best d ->
        match best with None -> Some d | Some b -> Some (if d.def_line > b.def_line then d else b))
      None ds
  in
  let local name =
    match Hashtbl.find_opt ctx.file_defs file with
    | None -> None
    | Some t -> (
        match Hashtbl.find_opt t name with
        | None | Some [] -> None
        | Some defs -> (
            match pick (List.filter (fun d -> d.def_line <= line) defs) with
            | Some d -> Some d
            | None -> pick defs))
  in
  match parts with
  | [ name ] -> (
      match local name with
      | Some d -> Some d
      | None -> Hashtbl.find_opt ctx.global_defs (module_name_of_file file, name))
  | _ -> (
      match callee_key ~self_module:(module_name_of_file file) parts with
      | Some key -> Hashtbl.find_opt ctx.global_defs key
      | None -> None)

(* Label-aware argument/parameter matching for call-site propagation. *)
let match_args params args =
  let labelled = List.filter (fun (l, _) -> l <> Asttypes.Nolabel) args in
  let unlabelled =
    ref (List.filter_map (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None) args)
  in
  List.map
    (fun (plabel, pat) ->
      match plabel with
      | Asttypes.Nolabel -> (
          match !unlabelled with
          | a :: rest ->
              unlabelled := rest;
              (pat, Some a)
          | [] -> (pat, None))
      | Asttypes.Labelled name | Asttypes.Optional name ->
          let arg =
            List.find_map
              (fun (l, a) ->
                match l with
                | (Asttypes.Labelled n | Asttypes.Optional n) when n = name -> Some a
                | _ -> None)
              labelled
          in
          (pat, arg))
    params

(* --- the par-closure analysis ----------------------------------------

   For every application of Par_exec.run/iter, resolve the work
   closure (inline [fun] or a named function from the definition
   tables), mark its worker/item parameters, and walk the reachable code
   tracking which names are derived from them: let-bound names whose
   right-hand side mentions a derived name are derived (so
   [let slot = dst_slot.{e}] propagates), a for-loop index is derived
   when either bound is, a match binds derived names when the scrutinee
   is derived, and calls into resolvable functions propagate derivations
   into the callee's parameters and recurse (depth-capped, cycle-safe).

   A ref / mutable-field / container write to anything not let-bound in
   the walked code is par-shared-mutation; an element write passes the
   item-owned rule iff an index mentions an item-derived name or the
   target is selected by a worker- or item-derived name. *)

type penv = { locals : StrSet.t; item : StrSet.t; worker : StrSet.t }

let max_call_depth = 8

let rec par_walk ctx ~emit ~file ~depth ~visited env e =
  let recurse env e = par_walk ctx ~emit ~file ~depth ~visited env e in
  let target_local target =
    match head_ident target with Some n -> StrSet.mem n env.locals | None -> true
  in
  let target_name target = Option.value ~default:"<expr>" (head_ident target) in
  match e.pexp_desc with
  | Pexp_let (rf, vbs, rest) ->
      let all_names = List.concat_map (fun vb -> pat_bound_vars vb.pvb_pat) vbs in
      let rhs_env =
        match rf with
        | Asttypes.Recursive -> { env with locals = add_names env.locals all_names }
        | Asttypes.Nonrecursive -> env
      in
      List.iter
        (fun vb ->
          (* Local function definitions are analyzed at their call
             sites, where argument derivations are known. *)
          match vb.pvb_expr.pexp_desc with
          | Pexp_fun _ -> ()
          | _ -> recurse rhs_env vb.pvb_expr)
        vbs;
      let env =
        List.fold_left
          (fun env vb ->
            let names = pat_bound_vars vb.pvb_pat in
            let env = { env with locals = add_names env.locals names } in
            let env =
              if mentions env.item vb.pvb_expr then { env with item = add_names env.item names }
              else env
            in
            if mentions env.worker vb.pvb_expr then
              { env with worker = add_names env.worker names }
            else env)
          env vbs
      in
      recurse env rest
  | Pexp_fun (_, dflt, pat, body) ->
      Option.iter (recurse env) dflt;
      recurse { env with locals = add_names env.locals (pat_bound_vars pat) } body
  | Pexp_for (pat, lo, hi, _, body) ->
      recurse env lo;
      recurse env hi;
      let names = match pat_var pat with Some n -> [ n ] | None -> [] in
      let env = { env with locals = add_names env.locals names } in
      let env =
        if mentions env.item lo || mentions env.item hi then
          { env with item = add_names env.item names }
        else env
      in
      let env =
        if mentions env.worker lo || mentions env.worker hi then
          { env with worker = add_names env.worker names }
        else env
      in
      recurse env body
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      recurse env scrut;
      List.iter
        (fun c ->
          let names = pat_bound_vars c.pc_lhs in
          let cenv = { env with locals = add_names env.locals names } in
          let cenv =
            if mentions env.item scrut then { cenv with item = add_names cenv.item names }
            else cenv
          in
          let cenv =
            if mentions env.worker scrut then { cenv with worker = add_names cenv.worker names }
            else cenv
          in
          Option.iter (recurse cenv) c.pc_guard;
          recurse cenv c.pc_rhs)
        cases
  | Pexp_function cases ->
      List.iter
        (fun c ->
          let cenv = { env with locals = add_names env.locals (pat_bound_vars c.pc_lhs) } in
          Option.iter (recurse cenv) c.pc_guard;
          recurse cenv c.pc_rhs)
        cases
  | Pexp_setfield (target, _, value) ->
      if not (target_local target) then
        emit ~file ~line:(line_of_loc e.pexp_loc) Par_shared
          (Printf.sprintf
             "mutable-field write to captured `%s' inside a Par_exec closure; confine writes \
              to item-owned state or merge after the barrier"
             (target_name target));
      recurse env target;
      recurse env value
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let parts = expand_path ctx file txt in
      let nargs = List.length args in
      let line = line_of_loc e.pexp_loc in
      (if is_sanctioned_in_par parts || is_atomic parts then ()
       else
         match args with
         | (_, target) :: _ when is_ref_write parts ->
             if not (target_local target) then
               emit ~file ~line Par_shared
                 (Printf.sprintf
                    "write through captured ref `%s' inside a Par_exec closure; accumulate in \
                     item-owned slots and reduce after the barrier"
                    (target_name target))
         | (_, target) :: rest when is_elem_write parts nargs ->
             if not (target_local target) then begin
               let index_args = all_but_last (List.map snd rest) in
               let index_owned = List.exists (mentions env.item) index_args in
               let target_owned = mentions env.item target || mentions env.worker target in
               if not (index_owned || target_owned) then
                 emit ~file ~line Item_owned
                   (Printf.sprintf
                      "element write to `%s' with an index not derived from the item parameter \
                       breaks the item-owned-writes discipline; derive the index from the item \
                       or waive with (* lint: item-owned *) and a disjointness argument"
                      (target_name target))
             end
         | (_, target) :: _ when is_container_mutator parts ->
             if not (target_local target) then
               emit ~file ~line Par_shared
                 (Printf.sprintf
                    "in-place container mutation of captured `%s' inside a Par_exec closure"
                    (target_name target))
         | (_, target) :: _ when is_bulk_mutator parts ->
             if not (target_local target) then
               emit ~file ~line Par_shared
                 (Printf.sprintf
                    "bulk mutation of captured `%s' inside a Par_exec closure"
                    (target_name target))
         | _ ->
             if depth < max_call_depth then (
               match resolve_def ctx ~file ~line parts with
               | Some def when not (List.mem (def.def_file, def.def_line) visited) ->
                   let env' =
                     List.fold_left
                       (fun acc (pat, arg) ->
                         let names = pat_bound_vars pat in
                         let local =
                           match arg with
                           | None -> true
                           | Some a -> (
                               match head_ident a with
                               | Some n -> StrSet.mem n env.locals
                               | None -> true)
                         in
                         let acc =
                           if local then { acc with locals = add_names acc.locals names }
                           else acc
                         in
                         let acc =
                           match arg with
                           | Some a when mentions env.item a ->
                               { acc with item = add_names acc.item names }
                           | _ -> acc
                         in
                         match arg with
                         | Some a when mentions env.worker a ->
                             { acc with worker = add_names acc.worker names }
                         | _ -> acc)
                       { locals = StrSet.empty; item = StrSet.empty; worker = StrSet.empty }
                       (match_args def.params args)
                   in
                   par_walk ctx ~emit ~file:def.def_file ~depth:(depth + 1)
                     ~visited:((def.def_file, def.def_line) :: visited)
                     env' def.body
               | Some _ -> ()
               | None -> (
                   match callee_key ~self_module:(module_name_of_file file) parts with
                   | Some (m, f) when Hashtbl.find_opt ctx.effects (m, f) = Some 2 ->
                       emit ~file ~line Par_shared
                         (Printf.sprintf
                            "call to shared-mutating %s.%s inside a Par_exec closure" m f)
                   | _ -> ())));
      List.iter (fun (_, a) -> recurse env a) args
  | Pexp_ident _ | Pexp_constant _ -> ()
  | _ ->
      let default = Ast_iterator.default_iterator in
      let it = { default with Ast_iterator.expr = (fun _ child -> recurse env child) } in
      default.Ast_iterator.expr it e

(* Entry: an application of Par_exec.{run,iter}. The work closure is
   the last unlabelled argument (after the pool; a [?shadow] is
   labelled); iter-style closures receive (worker, item), run-style
   just (worker). *)
let analyze_par_call ctx ~emit ~file ~line ~has_item args =
  let nolabel =
    List.filter_map (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None) args
  in
  match List.rev nolabel with
  | closure :: _ :: _ -> (
      let start ~file ?(visited = []) params body =
        let pos =
          List.filter_map (fun (l, p) -> if l = Asttypes.Nolabel then Some p else None) params
        in
        let worker_names = match pos with p0 :: _ -> pat_bound_vars p0 | [] -> [] in
        let item_names =
          if has_item then match pos with _ :: p1 :: _ -> pat_bound_vars p1 | _ -> []
          else []
        in
        let env =
          {
            locals = add_names StrSet.empty (List.concat_map (fun (_, p) -> pat_bound_vars p) params);
            item = add_names StrSet.empty item_names;
            worker = add_names StrSet.empty worker_names;
          }
        in
        par_walk ctx ~emit ~file ~depth:0 ~visited env body
      in
      match closure.pexp_desc with
      | Pexp_fun _ ->
          let params, body = peel_params closure in
          start ~file params body
      | Pexp_ident { txt; _ } -> (
          let parts = expand_path ctx file txt in
          match resolve_def ctx ~file ~line parts with
          | Some d -> start ~file:d.def_file ~visited:[ (d.def_file, d.def_line) ] d.params d.body
          | None -> ())
      | _ -> ())
  | _ -> ()

(* --- atomic-rmw --- *)

let contains_atomic_get_of ctx ~file name e =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, arg) :: _) -> (
              match List.rev (expand_path ctx file txt) with
              | "get" :: "Atomic" :: _ when head_ident arg = Some name -> found := true
              | _ -> ())
          | _ -> ());
          default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  !found

(* --- the per-file rule pass --- *)

let lint_structure ctx ~emit ~file ~lib_scope structure =
  let default = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        let parts = expand_path ctx file txt in
        let path = String.concat "." parts in
        let line = line_of_loc e.pexp_loc in
        if List.mem path wall_clock_idents && not (clock_allowlisted file) then
          emit ~file ~line Wall_clock
            (Printf.sprintf
               "%s reads ambient time/entropy; all clocks flow through lib/obs/clock.ml and all \
                randomness through lib/prng"
               path);
        if lib_scope && List.mem path print_idents then
          emit ~file ~line No_print
            (Printf.sprintf
               "%s writes to the console from library code; return values, take a formatter, or \
                emit through Cutfit_obs"
               path);
        if lib_scope && path = "Hashtbl.hash" then
          emit ~file ~line Poly_compare
            "Hashtbl.hash depends on representation details and truncation limits; hash a \
             canonical scalar key instead";
        if not (par_runtime_file file) then (
          match last_two parts with
          | Some ("Domain", (("spawn" | "join") as fn)) ->
              emit ~file ~line Domain_outside
                (Printf.sprintf
                   "Domain.%s outside lib/bsp/par_exec.ml; all domain plumbing lives in the \
                    Par_exec runtime"
                   fn)
          | _ ->
              if List.exists (fun c -> c = "Mutex" || c = "Condition") parts then
                emit ~file ~line Domain_outside
                  (Printf.sprintf
                     "%s outside lib/bsp/par_exec.ml; the kernels are lock-free by discipline \
                      and all blocking primitives live in the Par_exec runtime"
                     path))
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        let parts = expand_path ctx file txt in
        let path = String.concat "." parts in
        let line = line_of_loc e.pexp_loc in
        (match last_two parts with
        | Some ("Hashtbl", "iter") ->
            emit ~file ~line Hashtbl_order
              "Hashtbl.iter visits bindings in unspecified hash order; restructure, or waive \
               with (* lint: order-independent *) and a reason"
        | Some ("Hashtbl", "fold") ->
            let insensitive =
              match args with (_, f) :: _ -> fold_fn_order_insensitive f | [] -> false
            in
            if not insensitive then
              emit ~file ~line Hashtbl_order
                "Hashtbl.fold with a combiner not provably order-insensitive; use a \
                 commutative-associative combiner, or waive with (* lint: order-independent *)"
        | _ -> ());
        if
          lib_scope
          && List.mem path poly_compare_fns
          && List.exists (fun (_, a) -> structured_literal a) args
        then
          emit ~file ~line Poly_compare
            (Printf.sprintf
               "polymorphic %s on a structured value walks the runtime representation; use a \
                typed comparator"
               path);
        (match (List.rev parts, List.map snd args) with
        | "set" :: "Atomic" :: _, target :: value :: _ -> (
            match head_ident target with
            | Some n when contains_atomic_get_of ctx ~file n value ->
                emit ~file ~line Atomic_rmw
                  (Printf.sprintf
                     "Atomic.set %s (... Atomic.get %s ...) is a non-atomic read-modify-write; \
                      use Atomic.fetch_and_add or a compare_and_set loop"
                     n n)
            | _ -> ())
        | _ -> ());
        match last_two parts with
        | Some ("Par_exec", (("run" | "iter") as which))
          when not (par_runtime_file file) ->
            analyze_par_call ctx ~emit ~file ~line ~has_item:(which <> "run") args
        | _ -> ())
    | _ -> ());
    default.Ast_iterator.expr it e
  in
  let it = { default with Ast_iterator.expr = expr } in
  it.Ast_iterator.structure it structure

(* --- file handling --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Dot entries are skipped: inside _build they are dune's object
   directories, whose temporary files can vanish between [readdir] and
   [is_directory] while the compiler runs beside the linter. *)
let rec walk_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun entry -> entry.[0] <> '.')
    |> List.sort String.compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then walk_dir path else [ path ])

let parse_impl ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let parse_intf ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Parse.interface lexbuf

let parse_error_line = function
  | Syntaxerr.Error err -> line_of_loc (Syntaxerr.location_of_error err)
  | Lexer.Error (_, loc) -> line_of_loc loc
  | _ -> 1

let parse_error_msg = function
  | Syntaxerr.Error _ -> "cannot parse: syntax error"
  | Lexer.Error _ -> "cannot parse: lexer error"
  | exn -> "cannot parse: " ^ Printexc.to_string exn

(* --- unused exports --- *)

let exports_of_intf ~file signature =
  List.filter_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          Some (module_name_of_file file, vd.pval_name.Asttypes.txt, line_of_loc vd.pval_loc)
      | _ -> None)
    signature

(* The unused-export rule over one interface: every unreferenced
   export is a finding. The rule takes no waiver, so the report goes
   through [force]. *)
let check_exports ~file ~uses ~report sg =
  List.iter
    (fun (m, v, line) ->
      if not (Hashtbl.mem uses (m, v)) then
        report ~file ~line Unused_export
          (Printf.sprintf "%s.%s is exported but never referenced; delete the export" m v))
    (exports_of_intf ~file sg)

(* Record the last two components of every (alias-expanded) value path:
   [Check.Kernel_check.races] marks (Kernel_check, races) used. *)
let record_uses ~aliases uses structure =
  let expand parts =
    match (parts, aliases) with
    | head :: tl, Some table -> (
        match Hashtbl.find_opt table head with Some target -> target @ tl | None -> parts)
    | _ -> parts
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match List.rev (expand (Longident.flatten txt)) with
              | v :: m :: _ -> Hashtbl.replace uses (m, v) ()
              | _ -> ())
          | _ -> ());
          default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.structure it structure

(* --- JSON artifact --- *)

module Json = Cutfit_obs.Json

let write_json path ~files ~findings =
  let report =
    Json.Obj
      [
        ("files", Json.Int files);
        ("clean", Json.Bool (findings = []));
        ( "findings",
          Json.List
            (List.map
               (fun f ->
                 Json.Obj
                   [
                     ("file", Json.String f.file);
                     ("line", Json.Int f.line);
                     ("rule", Json.String (rule_name f.rule));
                     ("msg", Json.String f.msg);
                   ])
               findings) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string report);
  output_char oc '\n';
  close_out oc

(* --- whole-tree run --- *)

let sort_findings fs =
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> String.compare (rule_name a.rule) (rule_name b.rule)
          | c -> c)
      | c -> c)
    fs

let run ~lint_dirs ~use_dirs ~json ~dump_effects =
  let files = List.concat_map walk_dir lint_dirs in
  let ml = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let mli = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let ctx = fresh_ctx () in
  let findings = ref [] in
  let seen = Hashtbl.create 64 in
  let force ~file ~line rule msg =
    if not (Hashtbl.mem seen (file, line, rule)) then begin
      Hashtbl.replace seen (file, line, rule) ();
      findings := { file; line; rule; msg } :: !findings
    end
  in
  let waived file =
    match Hashtbl.find_opt ctx.waived file with Some w -> w | None -> fun _ _ -> false
  in
  let emit ~file ~line rule msg = if not (waived file line rule) then force ~file ~line rule msg in
  let parsed =
    List.map
      (fun file ->
        let source = read_file file in
        Hashtbl.replace ctx.waived file (waivers_of_source source);
        match parse_impl ~file source with
        | structure ->
            Hashtbl.replace ctx.aliases file (collect_aliases structure);
            let ft, tt = collect_defs ~file structure in
            Hashtbl.replace ctx.file_defs file ft;
            let m = module_name_of_file file in
            Hashtbl.iter (fun name def -> Hashtbl.replace ctx.global_defs (m, name) def) tt;
            (file, Some structure)
        | exception exn ->
            emit ~file ~line:(parse_error_line exn) Parse_error (parse_error_msg exn);
            (file, None))
      ml
  in
  compute_effects ctx;
  List.iter
    (fun (file, structure) ->
      match structure with
      | Some s -> lint_structure ctx ~emit ~file ~lib_scope:(in_lib file) s
      | None -> ())
    parsed;
  (* Interfaces: every exported val must be referenced somewhere in the
     linted tree or the extra usage dirs. *)
  let intfs =
    List.map
      (fun file ->
        let source = read_file file in
        Hashtbl.replace ctx.waived file (waivers_of_source source);
        match parse_intf ~file source with
        | sg -> (file, Some sg)
        | exception exn ->
            emit ~file ~line:(parse_error_line exn) Parse_error (parse_error_msg exn);
            (file, None))
      mli
  in
  let uses = Hashtbl.create 1024 in
  List.iter
    (fun (file, structure) ->
      match structure with
      | Some s -> record_uses ~aliases:(Hashtbl.find_opt ctx.aliases file) uses s
      | None -> ())
    parsed;
  List.iter
    (fun dir ->
      List.iter
        (fun file ->
          if Filename.check_suffix file ".ml" then
            match parse_impl ~file (read_file file) with
            | s -> record_uses ~aliases:(Some (collect_aliases s)) uses s
            | exception _ -> ())
        (walk_dir dir))
    use_dirs;
  List.iter
    (fun (file, sg) ->
      match sg with
      | Some sg -> check_exports ~file ~uses ~report:force sg
      | None -> ())
    intfs;
  let findings = sort_findings !findings in
  let nfiles = List.length ml + List.length mli in
  List.iter
    (fun f -> Printf.printf "%s:%d: [%s] %s\n" f.file f.line (rule_name f.rule) f.msg)
    findings;
  (match json with Some path -> write_json path ~files:nfiles ~findings | None -> ());
  if dump_effects then begin
    let rows =
      Hashtbl.fold (fun (m, f) eff acc -> (m ^ "." ^ f, eff) :: acc) ctx.effects []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.iter (fun (name, eff) -> Printf.printf "%-16s %s\n" (effect_name eff) name) rows
  end;
  Printf.printf "lint: %d file(s) checked, %s\n" nfiles
    (match List.length findings with 0 -> "clean" | n -> Printf.sprintf "%d finding(s)" n);
  if findings <> [] then exit 1

(* --- self-test over fixtures --- *)

let expect_re = Str.regexp {|(\*[ \t]*expect:[ \t]*\([a-z-]+\)|}

let expected_of_fixture source =
  try
    ignore (Str.search_forward expect_re source 0);
    Some (Str.matched_group 1 source)
  with Not_found -> None

let fixture_findings ~uses file =
  let source = read_file file in
  let ctx = fresh_ctx () in
  let findings = ref [] in
  let seen = Hashtbl.create 8 in
  let force ~file ~line rule msg =
    if not (Hashtbl.mem seen (file, line, rule)) then begin
      Hashtbl.replace seen (file, line, rule) ();
      findings := { file; line; rule; msg } :: !findings
    end
  in
  let waived file =
    match Hashtbl.find_opt ctx.waived file with Some w -> w | None -> fun _ _ -> false
  in
  let emit ~file ~line rule msg = if not (waived file line rule) then force ~file ~line rule msg in
  Hashtbl.replace ctx.waived file (waivers_of_source source);
  (if Filename.check_suffix file ".mli" then
     match parse_intf ~file source with
     | sg ->
         (* Usage sites are the sibling .ml fixtures. *)
         check_exports ~file ~uses ~report:force sg
     | exception exn -> emit ~file ~line:(parse_error_line exn) Parse_error (parse_error_msg exn)
   else
     match parse_impl ~file source with
     | structure ->
         Hashtbl.replace ctx.aliases file (collect_aliases structure);
         let ft, tt = collect_defs ~file structure in
         Hashtbl.replace ctx.file_defs file ft;
         let m = module_name_of_file file in
         Hashtbl.iter (fun name def -> Hashtbl.replace ctx.global_defs (m, name) def) tt;
         compute_effects ctx;
         (* Fixtures exercise every rule class, so lint them at lib
            strictness regardless of their path. *)
         lint_structure ctx ~emit ~file ~lib_scope:true structure
     | exception exn -> emit ~file ~line:(parse_error_line exn) Parse_error (parse_error_msg exn));
  sort_findings !findings

let self_test dir =
  let fixtures =
    List.filter
      (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
      (walk_dir dir)
  in
  let uses = Hashtbl.create 64 in
  List.iter
    (fun file ->
      if Filename.check_suffix file ".ml" then
        match parse_impl ~file (read_file file) with
        | s -> record_uses ~aliases:(Some (collect_aliases s)) uses s
        | exception _ -> ())
    fixtures;
  let failures = ref 0 in
  List.iter
    (fun file ->
      let base = Filename.basename file in
      let findings = fixture_findings ~uses file in
      let got =
        match findings with
        | [] -> "none"
        | fs -> String.concat "," (List.sort_uniq String.compare (List.map (fun f -> rule_name f.rule) fs))
      in
      let verdict =
        match expected_of_fixture (read_file file) with
        | None -> Error "missing (* expect: <rule>|none *) header"
        | Some "none" -> if findings = [] then Ok () else Error (Printf.sprintf "expected none, got %s" got)
        | Some rname -> (
            match rule_of_name rname with
            | None -> Error (Printf.sprintf "unknown expected rule %s" rname)
            | Some r ->
                if findings <> [] && List.for_all (fun f -> f.rule = r) findings then Ok ()
                else Error (Printf.sprintf "expected %s, got %s" (rule_name r) got))
      in
      match verdict with
      | Ok () -> Printf.printf "self-test: PASS %s\n" base
      | Error why ->
          incr failures;
          Printf.printf "self-test: FAIL %s (%s)\n" base why;
          List.iter
            (fun f -> Printf.printf "  %s:%d: [%s] %s\n" f.file f.line (rule_name f.rule) f.msg)
            findings)
    fixtures;
  if fixtures = [] then begin
    Printf.eprintf "self-test: no fixtures found under %s\n" dir;
    exit 1
  end;
  Printf.printf "self-test: %d fixture(s), %s\n" (List.length fixtures)
    (match !failures with 0 -> "all passing" | n -> Printf.sprintf "%d failing" n);
  if !failures > 0 then exit 1

(* --- entry point --- *)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec go ~lint_dirs ~use_dirs ~json ~effects = function
    | [] ->
        let lint_dirs =
          match List.rev lint_dirs with [] -> [ "lib"; "bin" ] | ds -> ds
        in
        run ~lint_dirs ~use_dirs:(List.rev use_dirs) ~json ~dump_effects:effects
    | "--self-test" :: dir :: _ -> self_test dir
    | "--use-only" :: d :: rest -> go ~lint_dirs ~use_dirs:(d :: use_dirs) ~json ~effects rest
    | "--json" :: f :: rest -> go ~lint_dirs ~use_dirs ~json:(Some f) ~effects rest
    | "--effects" :: rest -> go ~lint_dirs ~use_dirs ~json ~effects:true rest
    | d :: rest -> go ~lint_dirs:(d :: lint_dirs) ~use_dirs ~json ~effects rest
  in
  go ~lint_dirs:[] ~use_dirs:[] ~json:None ~effects:false argv
