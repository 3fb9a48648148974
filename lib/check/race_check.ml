module Csr = Cutfit_bsp.Csr
module Ownership = Cutfit_bsp.Ownership

let suite = "races"
let default_domains = [ 1; 2; 4 ]

(* --- violation assembly -------------------------------------------- *)

let conflict_violations ~label ~domains own =
  List.map
    (fun (cf : Ownership.conflict) ->
      Violation.v ~suite ~rule:cf.Ownership.rule "%s (domains=%d): %a" label domains
        Ownership.pp_conflict cf)
    (Ownership.violations own)

(* The generic clean check: per domain count, the production kernel run
   with a fresh shadow must (1) record no ownership conflict and (2)
   digest-match the same kernel run without one, so recording never
   perturbs what it checks. *)
let check_kernel ?vertex_space ~label ~run c domains_counts =
  let oracle = run ~domains:1 ~shadow:None in
  List.concat_map
    (fun domains ->
      let own = Csr.shadow ?vertex_space ~workers:domains c in
      let digest = run ~domains ~shadow:(Some own) in
      let vs = conflict_violations ~label ~domains own in
      if String.equal digest oracle then vs
      else
        vs
        @ [
            Violation.v ~suite ~rule:"instr-vs-csr"
              "%s: shadowed digest %s (domains=%d) <> unshadowed digest %s" label digest domains
              oracle;
          ])
    domains_counts

let pagerank ?(iterations = 10) ?(domains_counts = default_domains) pg =
  let c = Csr.build pg in
  check_kernel ~label:"pagerank" c domains_counts ~run:(fun ~domains ~shadow ->
      Fault_check.float_attrs_digest (Cutfit_algo.Pagerank.run_csr ~iterations ~domains ?shadow c))

let connected_components ?(iterations = 10) ?(domains_counts = default_domains) pg =
  let c = Csr.build pg in
  check_kernel ~label:"connected-components" c domains_counts ~run:(fun ~domains ~shadow ->
      Fault_check.int_attrs_digest
        (Cutfit_algo.Connected_components.run_csr ~iterations ~domains ?shadow c))

let shortest_paths ?(max_supersteps = 2000) ?(domains_counts = default_domains) ~landmarks pg =
  let c = Csr.build pg in
  check_kernel ~label:"shortest-paths" c domains_counts ~run:(fun ~domains ~shadow ->
      let distances = Cutfit_algo.Sssp.run_csr ~max_supersteps ~domains ?shadow ~landmarks c in
      Fault_check.int_attrs_digest (Array.concat (Array.to_list distances)))

(* Triangle counting's tracked writes are the reduce's per-vertex ones,
   hence a vertex-space recorder. *)
let triangle_count ?(domains_counts = default_domains) pg =
  let c = Csr.build pg in
  check_kernel ~vertex_space:true ~label:"triangle-count" c domains_counts
    ~run:(fun ~domains ~shadow ->
      let per_vertex, total = Cutfit_algo.Triangle_count.run_csr ~domains ?shadow c in
      Fault_check.int_attrs_digest (Array.append per_vertex [| total |]))

(* --- seeded corruptions --------------------------------------------

   Corruptions are shadow-only: protocol-violating records are written
   into the recorder before a PageRank run, so they land in its first
   scatter epoch without touching the accumulator buffers. *)

let seeded ~corrupt ?(domains = 2) pg =
  let c = Csr.build pg in
  let own = Csr.shadow ~workers:domains c in
  corrupt own;
  ignore (Cutfit_algo.Pagerank.run_csr ~iterations:2 ~domains ~shadow:own c);
  conflict_violations ~label:"seeded-pagerank" ~domains own

(* Items 0 and 1 both claim slot 0 in the scatter epoch: the "one slot
   written by two items" race, made deterministic. *)
let seeded_foreign_write ?domains pg =
  seeded ?domains pg ~corrupt:(fun own ->
      Ownership.write own ~worker:0 ~item:0 0;
      Ownership.write own ~worker:0 ~item:1 0)

(* Item 0 consumes its own slot before the epoch's barrier: the
   reduction-read-too-early race. *)
let seeded_premature_read ?domains pg =
  seeded ?domains pg ~corrupt:(fun own ->
      Ownership.write own ~worker:0 ~item:0 0;
      Ownership.read own ~worker:0 ~item:0 0)

let has_rule rule vs =
  List.exists (fun (v : Violation.t) -> String.equal v.Violation.rule rule) vs

let self_check ?(domains = 2) pg =
  let vs = ref [] in
  if not (has_rule "slot-conflict" (seeded_foreign_write ~domains pg)) then
    vs :=
      Violation.v ~suite ~rule:"corruption-undetected"
        "seeded two-writer corruption produced no slot-conflict at domains=%d" domains
      :: !vs;
  if not (has_rule "premature-read" (seeded_premature_read ~domains pg)) then
    vs :=
      Violation.v ~suite ~rule:"corruption-undetected"
        "seeded premature-reduction read went undetected at domains=%d" domains
      :: !vs;
  List.rev !vs
