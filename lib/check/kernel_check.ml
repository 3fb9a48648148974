module Csr = Cutfit_bsp.Csr
module Ownership = Cutfit_bsp.Ownership
module Pagerank = Cutfit_algo.Pagerank
module Cc = Cutfit_algo.Connected_components
module Sssp = Cutfit_algo.Sssp
module Tr = Cutfit_algo.Triangle_count

type 'v t = {
  label : string;
  vertex_space : bool;
  digest : 'v -> string;
  csr : domains:int -> ?rounds:int ref -> ?shadow:Ownership.t -> Csr.t -> 'v;
}

(* --- the kernel table ---------------------------------------------- *)

let pagerank =
  {
    label = "pagerank";
    vertex_space = false;
    digest = Fault_check.float_attrs_digest;
    csr = (fun ~domains ?rounds ?shadow c -> Pagerank.run_csr ~domains ?rounds ?shadow c);
  }

let connected_components =
  {
    label = "connected-components";
    vertex_space = false;
    digest = Fault_check.int_attrs_digest;
    csr = (fun ~domains ?rounds ?shadow c -> Cc.run_csr ~domains ?rounds ?shadow c);
  }

let shortest_paths ~landmarks =
  {
    label = "shortest-paths";
    vertex_space = false;
    digest = (fun distances -> Fault_check.int_attrs_digest (Array.concat (Array.to_list distances)));
    csr = (fun ~domains ?rounds ?shadow c -> Sssp.run_csr ~domains ?rounds ?shadow ~landmarks c);
  }

(* Both engines compute the total as the per-vertex sum over three, so
   the per-vertex counts are the whole value. Triangle counting's
   tracked writes are the reduce's per-vertex ones, hence a
   vertex-space recorder; its one pass leaves [rounds] alone. *)
let triangle_count =
  {
    label = "triangle-count";
    vertex_space = true;
    digest = Fault_check.int_attrs_digest;
    csr = (fun ~domains ?rounds:_ ?shadow c -> fst (Tr.run_csr ~domains ?shadow c));
  }

(* --- engines: boxed oracle vs compact kernel ----------------------- *)

let engines_suite = "engines"

let plain k c = k.digest (k.csr ~domains:1 c)

let engines k ~oracle ~plain ~domains_counts c =
  let run domains = k.digest (k.csr ~domains c) in
  List.concat_map
    (fun domains ->
      let first = if domains = 1 then Lazy.force plain else run domains in
      let second = run domains in
      let vs = ref [] in
      if String.compare first oracle <> 0 then
        vs :=
          Violation.v ~suite:engines_suite ~rule:"boxed-vs-csr"
            "%s: csr digest %s (domains=%d) <> boxed digest %s" k.label first domains oracle
          :: !vs;
      if String.compare second first <> 0 then
        vs :=
          Violation.v ~suite:engines_suite ~rule:"run-twice"
            "%s: csr run-twice digests differ at domains=%d: %s then %s" k.label domains first
            second
          :: !vs;
      List.rev !vs)
    domains_counts

(* --- races: the kernels under the shadow ownership recorder -------- *)

let races_suite = "races"

let conflict_violations ~label ~domains own =
  List.map
    (fun (cf : Ownership.conflict) ->
      Violation.v ~suite:races_suite ~rule:cf.Ownership.rule "%s (domains=%d): %a" label domains
        Ownership.pp_conflict cf)
    (Ownership.violations own)

(* Per domain count, the production kernel run with a fresh shadow must
   (1) record no ownership conflict and (2) digest-match the same kernel
   run without one at one domain, so recording never perturbs what it
   checks. *)
let races k ~plain ~domains_counts c =
  List.concat_map
    (fun domains ->
      let own = Csr.shadow ~vertex_space:k.vertex_space ~workers:domains c in
      let digest = k.digest (k.csr ~domains ~shadow:own c) in
      let vs = conflict_violations ~label:k.label ~domains own in
      let plain = Lazy.force plain in
      if String.equal digest plain then vs
      else
        vs
        @ [
            Violation.v ~suite:races_suite ~rule:"instr-vs-csr"
              "%s: shadowed digest %s (domains=%d) <> unshadowed digest %s" k.label digest domains
              plain;
          ])
    domains_counts

(* Corruptions are shadow-only: protocol-violating records are written
   into the recorder before a PageRank run, so they land in its first
   scatter epoch without touching the accumulator buffers. *)
let seeded ~corrupt ?(domains = 2) c =
  let own = Csr.shadow ~workers:domains c in
  corrupt own;
  ignore (Pagerank.run_csr ~iterations:2 ~domains ~shadow:own c);
  conflict_violations ~label:"seeded-pagerank" ~domains own

(* Items 0 and 1 both claim slot 0 in the scatter epoch: the "one slot
   written by two items" race, made deterministic. *)
let seeded_foreign_write ?domains c =
  seeded ?domains c ~corrupt:(fun own ->
      Ownership.write own ~worker:0 ~item:0 0;
      Ownership.write own ~worker:0 ~item:1 0)

(* Item 0 consumes its own slot before the epoch's barrier: the
   reduction-read-too-early race. *)
let seeded_premature_read ?domains c =
  seeded ?domains c ~corrupt:(fun own ->
      Ownership.write own ~worker:0 ~item:0 0;
      Ownership.read own ~worker:0 ~item:0 0)

let has_rule rule vs =
  List.exists (fun (v : Violation.t) -> String.equal v.Violation.rule rule) vs

let self_check ?(domains = 2) c =
  let vs = ref [] in
  if not (has_rule "slot-conflict" (seeded_foreign_write ~domains c)) then
    vs :=
      Violation.v ~suite:races_suite ~rule:"corruption-undetected"
        "seeded two-writer corruption produced no slot-conflict at domains=%d" domains
      :: !vs;
  if not (has_rule "premature-read" (seeded_premature_read ~domains c)) then
    vs :=
      Violation.v ~suite:races_suite ~rule:"corruption-undetected"
        "seeded premature-reduction read went undetected at domains=%d" domains
      :: !vs;
  List.rev !vs
