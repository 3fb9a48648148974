(* The spec-parser corpus: a fixed list of inputs for each compact-spec
   DSL (faults, scale events, heterogeneous hosts, mutations, chaos
   scenarios) and what the parser makes of each one. A row holds the
   canonical re-print of an accepted input ([to_spec] of the parse;
   ["ok ="] when it is the input itself), or the [Spec_error] dsl and
   item of a rejected one, so a parser rewrite that accepts, rejects or
   canonicalizes any input differently fails on that input's row.

   The inputs per DSL: the specs the parser tests use, the embedded
   sub-specs (and, for chaos, the whole specs) of [Gen.scenario ~seed:1
   ~index] for indices 0-199, and seeded mutants of both: a character
   deleted, duplicated or swapped with its neighbour, a space inserted,
   or a digit run replaced by a huge, negative or [nan] value. *)

module Faults = Cutfit_bsp.Faults
module Elastic = Cutfit_bsp.Elastic
module Spec_error = Cutfit_bsp.Spec_error
module Mutation = Cutfit_dynamic.Mutation
module Scenario = Cutfit_chaos.Scenario
module Gen = Cutfit_chaos.Gen
module Splitmix64 = Cutfit_prng.Splitmix64

type dsl = { name : string; print : string -> string; base : string list }

(* A heterogeneous-host profile has no spec printer; its rows print the
   multipliers of eight executors exactly, which shows the entry list
   and its cycling. *)
let hetero_print raw =
  let h = Elastic.hetero_of_spec ~executors:8 raw in
  String.concat ","
    (Array.to_list
       (Array.mapi (fun e s -> Printf.sprintf "%h/%h" s h.Elastic.bandwidths.(e)) h.Elastic.speeds))

let generated = List.init 200 (fun index -> Gen.scenario ~seed:1 ~index)

let embedded f = List.filter_map f generated

let dsls =
  [
    {
      name = "faults";
      print = (fun s -> Faults.to_spec ((Faults.config s).Faults.items));
      base =
        [
          "crash@3:e1, straggler@2-4:x2.5, net@1-2:x0.5, loss@2:e0:r3, rand@0.1";
          "straggler@1,net@1,loss@1";
          "crash@3,straggler@2-4:x4,net@1:x0.25,loss@5:r1";
          "crash@3:e1, straggler@2-2:e0:x2.5, net@1-2:x0.5, loss@2:e0:r3, rand@0.1";
          "loss@1:e1:r2";
          "crash@6,straggler@2-3:x3,loss@8:r1";
          "crash@2,straggler@3-4:x20";
          "straggler@2:x3,loss@3:r2,crash@4:e1";
          "rand@0.5,straggler@2-5:x3";
          "crash@1,straggler@1-9:x5,net@1-9:x0.1,loss@1,rand@1.0";
          "crash@2,straggler@1-3:x3,loss@3";
          "crash@2,rand@0.1";
          "straggler@1-2:x3,loss@2";
          "rand@0.8";
          "crash@1,crash@2";
          "crash@0";
          "crash@two";
          "straggler@3-1";
          "straggler@2:x0.5";
          "net@1:x0";
          "net@1:x2";
          "loss@1:r0";
          "rand@1.5";
          "meteor@3";
          "crash@1:x3";
          "crash";
          "";
          "straggler@2:xinf";
          "rand@nan";
          "net@2:xnan";
          "crash@2:e1:e3";
          "crash@ 2";
          "straggler@2 - 3:e 1";
        ]
        @ embedded (fun sc -> Option.map (fun c -> Faults.to_spec c.Faults.items) sc.Scenario.faults);
    };
    {
      name = "scale-events";
      print = (fun s -> Elastic.to_spec ((Elastic.config s).Elastic.items));
      base =
        [
          "leave@5-1, join@9+2, preempt@12:r3";
          "join@3,leave@4,preempt@2";
          "leave@5-1,join@9+2";
          "join@3+1,leave@4-1,preempt@2:r1";
          "leave@5-2, join@9+2, preempt@12:r3";
          "leave@2-1,join@2+1,preempt@5:r2";
          "leave@2-1,join@4+2";
          "preempt@6:r1";
          "leave@5-1,join@9+2,preempt@12:r1";
          "leave@4-1,join@9+2,preempt@12:r1";
          "leave@4-1,join@5+1";
          "join@0";
          "leave@0";
          "preempt@0";
          "join@3-1";
          "leave@3+1";
          "join@2+0";
          "preempt@2:r0";
          "preempt@2:x3";
          "meteor@3";
          "join";
          "";
          "preempt@2:r2:r3";
          "join@ 3 + 2";
        ]
        @ embedded (fun sc -> Option.map (fun c -> Elastic.to_spec c.Elastic.items) sc.Scenario.elastic);
    };
    {
      name = "hetero";
      print = hetero_print;
      base =
        [
          "2.0/0.5,1.0";
          "1.5,0.8/2.0";
          "0.5/1,2/1";
          "fast";
          "";
          "0";
          "-1/2";
          "nan";
          "1/nan";
          "inf";
          "1 / 2";
        ]
        @ List.init 20 (fun seed ->
              let h = Elastic.draw_hetero ~seed ~executors:(1 + (seed mod 4)) in
              String.concat ","
                (Array.to_list
                   (Array.mapi
                      (fun e s -> Printf.sprintf "%.12g/%.12g" s h.Elastic.bandwidths.(e))
                      h.Elastic.speeds)));
    };
    {
      name = "mutations";
      print = (fun s -> Mutation.to_spec ((Mutation.config s).Mutation.items));
      base =
        [
          "ins@3:r64, del@2-5:r16";
          "ins@1";
          "ins@3:r64,del@2-5:r16";
          "ins@3-3:r32, del@2-5:r16";
          "ins@1-3:r48,del@1-3:r12";
          "ins@1-6:r48,del@1-6:r12";
          "ins@1-8:r64,del@1-8:r16";
          "";
          "grow@1";
          "ins@0";
          "ins@3-2";
          "ins@1:r0";
          "ins@1:x4";
          "ins@";
          "ins@1:r4:r5";
          "INS @ 2 - 3 : r 8";
        ]
        @ embedded (fun sc ->
              Option.map (fun c -> Mutation.to_spec c.Mutation.items) sc.Scenario.mutations);
    };
    {
      name = "chaos";
      print = (fun s -> Scenario.to_spec (Scenario.of_spec s));
      base =
        [
          "default";
          "seed=1;algo=PR;jobs=8;mix=uniform";
          "faults=straggler@2-2:x4,crash@3:e1;jobs=0;fmode=rollback;maxfail=2";
          "seed=9;faults=crash@2;scale=join@3;mut=ins@1";
          "jobs=0;inject=selftest";
          "jobs=0;ckpt=2;hetero=1;inject=selftest";
          "seed=5;jobs=0;faults=crash@2;inject=shrinkme";
          "jobs=4;tenants=acme:2+beta;fairness=1;quota=3";
          "jobs=4;deadline=a30;cooldown=0.5;speculate=1.5";
          "bogus";
          "seed=";
          "seed=1;seed=2";
          "wat=1";
          "algo=XX";
          "data=nowhere";
          "cluster=v";
          "mix=nope";
          "jobs=-1";
          "slots=0";
          "policy=lifo";
          "speculate=0.5";
          "hetero=2";
          "deadline=z5";
          "deadline=f";
          "tenants=+";
          "tenants=a:0";
          "domains=0";
          "maxfail=2";
          "fmode=lineage";
          "mutevery=3";
          "mutmode=rebuild";
          "faults=meteor@3";
          "scale=join@0";
          "mut=ins@0";
          "speculate=nan";
          "jobs=0;tenants=a:nan";
          "jobs= 3;tenants=a: 2+ b";
        ]
        @ List.map Scenario.to_spec generated;
    };
  ]

(* --- seeded mutants ---------------------------------------------------- *)

let replacements = [| "99999999999999999999999"; "-7"; "nan" |]

(* Mutant [k] of [s], a pure function of (dsl index, base index, k). *)
let mutant ~salt ~k s =
  let n = String.length s in
  let d j = Splitmix64.draw ~seed:33 ~salt ~k:((8 * k) + j) in
  let at j bound = Splitmix64.draw_mod (d j) (max 1 bound) in
  let i = at 1 n in
  let splice i len mid = String.sub s 0 i ^ mid ^ String.sub s (i + len) (n - i - len) in
  match at 0 5 with
  | 0 when n > 0 -> splice i 1 ""
  | 1 when n > 0 -> splice i 0 (String.make 1 s.[i])
  | 2 when n > 1 ->
      let i = min i (n - 2) in
      splice i 2 (Printf.sprintf "%c%c" s.[i + 1] s.[i])
  | 3 -> splice i 0 " "
  | _ -> (
      (* the [at 1]-th digit run, counting from a random start *)
      let is_digit c = c >= '0' && c <= '9' in
      let rec run_start j = if j >= n then None else if is_digit s.[j] then Some j else run_start (j + 1) in
      match run_start i with
      | None -> splice i 0 " "
      | Some j ->
          let rec run_end e = if e < n && is_digit s.[e] then run_end (e + 1) else e in
          splice j (run_end j - j) replacements.(at 2 (Array.length replacements)))

let mutants_per_base = 3

let inputs dsl_index dsl =
  List.concat
    (List.mapi
       (fun b s ->
         s
         :: List.init mutants_per_base (fun k ->
                mutant ~salt:((dsl_index * 100_000) + b) ~k s))
       dsl.base)

(* --- rows -------------------------------------------------------------- *)

let outcome dsl s =
  match dsl.print s with
  | v when String.equal v s -> "ok ="
  | v -> "ok " ^ v
  | exception Spec_error.Error e ->
      Printf.sprintf "error %s %s" e.Spec_error.dsl
        (match e.Spec_error.item with None -> "-" | Some item -> Printf.sprintf "%S" item)
  | exception e -> "raised " ^ Printexc.to_string e

(* Every (dsl, input) pair of the corpus, in table order. Duplicate
   inputs of one DSL are kept once. *)
let cases =
  List.concat
    (List.mapi
       (fun i dsl ->
         let seen = Hashtbl.create 256 in
         List.filter_map
           (fun s ->
             if Hashtbl.mem seen s then None
             else begin
               Hashtbl.add seen s ();
               Some (dsl, s)
             end)
           (inputs i dsl))
       dsls)

let table_row (dsl, s) = Printf.sprintf "    (%S, %S, %S);" dsl.name s (outcome dsl s)

(* [None] when every committed row reproduces, else one line per
   mismatch or missing row. *)
let check () =
  let committed = Hashtbl.create 4096 in
  List.iter (fun (d, s, o) -> Hashtbl.replace committed (d, s) o) Spec_table.rows;
  let problems =
    List.filter_map
      (fun (dsl, s) ->
        let got = outcome dsl s in
        match Hashtbl.find_opt committed (dsl.name, s) with
        | None -> Some (Printf.sprintf "%s %S: no committed row (got %s)" dsl.name s got)
        | Some want when String.equal want got -> None
        | Some want -> Some (Printf.sprintf "%s %S: committed %s, got %s" dsl.name s want got))
      cases
  in
  let problems =
    if List.length Spec_table.rows = List.length cases then problems
    else
      Printf.sprintf "table has %d rows, corpus %d inputs" (List.length Spec_table.rows)
        (List.length cases)
      :: problems
  in
  problems
