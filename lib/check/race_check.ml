module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Ownership = Cutfit_bsp.Ownership
module B1 = Bigarray.Array1

let suite = "races"
let default_domains = [ 1; 2; 4 ]

type corruption = Clean | Foreign_write | Premature_read

(* Corruptions are shadow-only: they seed protocol-violating ownership
   records without touching the accumulator buffers, so the seeded runs
   still digest-match the production kernels and leave the shared Csr
   buffers clean for whoever runs next. *)
let seed_corruption own ~corruption ~step ~worker ~item =
  if step = 1 then
    match corruption with
    | Clean -> ()
    | Foreign_write ->
        (* Items 0 and 1 both claim slot 0 in the scatter epoch: the
           "one slot written by two items" race, made deterministic. *)
        if item <= 1 then Ownership.write own ~worker ~item 0
    | Premature_read ->
        (* Item 0 consumes its own slot before the epoch's barrier —
           the reduction-read-too-early race. *)
        if item = 0 then begin
          Ownership.write own ~worker ~item 0;
          Ownership.read own ~worker ~item 0
        end

(* --- instrumented kernels -----------------------------------------

   Line-for-line mirrors of the [run_csr] kernels in [Cutfit_algo],
   with one [Ownership.write] per accumulator-slot write in scatter and
   one [Ownership.read] per slot consume in reduce, phases driven by
   [Par_exec.iter_shadowed] so the discipline is checked at every
   barrier. Mirroring (instead of instrumenting the production code)
   keeps the hot kernels free of sanitizer branches; the [instr-vs-csr]
   digest rule below proves the mirrors faithful. Triangle counting is
   the exception: its scatter writes only worker-owned arrays, so the
   mirror runs the production scatter and instruments only the reduce. *)

let pagerank_instr ?(iterations = 10) ~domains ~corruption (c : Csr.t) =
  let own = Csr.shadow ~workers:domains c in
  let n = c.Csr.num_vertices in
  let parts = c.Csr.num_partitions in
  let part_off = c.Csr.part_off in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  let dslot = c.Csr.dst_slot in
  let out_deg = c.Csr.out_deg in
  let group_off = c.Csr.group_off and slot_vertex = c.Csr.slot_vertex in
  let facc = c.Csr.facc and has = c.Csr.has in
  let rank = B1.create Bigarray.float64 Bigarray.c_layout n in
  B1.fill rank 1.0;
  let cur = ref (Bytes.make n '\001') in
  let nxt = ref (Bytes.make n '\000') in
  let nchunks = c.Csr.num_chunks in
  let chunk_touched = Array.make (max nchunks 1) 0 in
  let step = ref 1 in
  let scatter w p =
    seed_corruption own ~corruption ~step:!step ~worker:w ~item:p;
    let a = !cur in
    for e = B1.unsafe_get part_off p to B1.unsafe_get part_off (p + 1) - 1 do
      let s = B1.unsafe_get esrc e and d = B1.unsafe_get edst e in
      if Bytes.unsafe_get a s <> '\000' || Bytes.unsafe_get a d <> '\000' then begin
        let deg = B1.unsafe_get out_deg s in
        if deg > 0 then begin
          let m = B1.unsafe_get rank s /. float_of_int deg in
          let slot = B1.unsafe_get dslot e in
          Ownership.write own ~worker:w ~item:p slot;
          if Bytes.unsafe_get has slot = '\000' then begin
            Bytes.unsafe_set has slot '\001';
            B1.unsafe_set facc slot m
          end
          else B1.unsafe_set facc slot (B1.unsafe_get facc slot +. m)
        end
      end
    done
  in
  let reduce w ch =
    let next = !nxt in
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    Bytes.fill next lo (hi - lo) '\000';
    let touched = ref 0 in
    for p = 0 to parts - 1 do
      let grp = (p * nchunks) + ch in
      for slot = B1.unsafe_get group_off grp to B1.unsafe_get group_off (grp + 1) - 1 do
        if Bytes.unsafe_get has slot <> '\000' then begin
          Ownership.read own ~worker:w ~item:ch slot;
          Bytes.unsafe_set has slot '\000';
          let v = B1.unsafe_get slot_vertex slot in
          if Bytes.unsafe_get next v = '\000' then begin
            Bytes.unsafe_set next v '\001';
            incr touched;
            B1.unsafe_set rank v (B1.unsafe_get facc slot)
          end
          else B1.unsafe_set rank v (B1.unsafe_get rank v +. B1.unsafe_get facc slot)
        end
      done
    done;
    for v = lo to hi - 1 do
      if Bytes.unsafe_get next v <> '\000' then
        B1.unsafe_set rank v (0.15 +. (0.85 *. B1.unsafe_get rank v))
    done;
    chunk_touched.(ch) <- !touched
  in
  Par_exec.with_pool ~domains (fun pool ->
      let continue_ = ref true in
      while !continue_ do
        Par_exec.iter_shadowed pool ~shadow:own ~n:parts (fun w p -> scatter w p);
        Par_exec.iter_shadowed pool ~shadow:own ~n:nchunks (fun w ch -> reduce w ch);
        let touched = Array.fold_left ( + ) 0 chunk_touched in
        let swap = !cur in
        cur := !nxt;
        nxt := swap;
        if touched = 0 || !step >= iterations then continue_ := false else incr step
      done);
  (own, Array.init n (fun v -> B1.unsafe_get rank v))

let cc_instr ?(iterations = 10) ~domains (c : Csr.t) =
  let own = Csr.shadow ~workers:domains c in
  let n = c.Csr.num_vertices in
  let parts = c.Csr.num_partitions in
  let part_off = c.Csr.part_off in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  let sslot = c.Csr.src_slot and dslot = c.Csr.dst_slot in
  let group_off = c.Csr.group_off and slot_vertex = c.Csr.slot_vertex in
  let iacc = c.Csr.iacc and has = c.Csr.has in
  let label = B1.create Bigarray.int Bigarray.c_layout n in
  for v = 0 to n - 1 do
    B1.unsafe_set label v v
  done;
  let cur = ref (Bytes.make n '\001') in
  let nxt = ref (Bytes.make n '\000') in
  let nchunks = c.Csr.num_chunks in
  let chunk_touched = Array.make (max nchunks 1) 0 in
  let contribute w p slot m =
    Ownership.write own ~worker:w ~item:p slot;
    if Bytes.unsafe_get has slot = '\000' then begin
      Bytes.unsafe_set has slot '\001';
      B1.unsafe_set iacc slot m
    end
    else if m < B1.unsafe_get iacc slot then B1.unsafe_set iacc slot m
  in
  let scatter w p =
    let a = !cur in
    for e = B1.unsafe_get part_off p to B1.unsafe_get part_off (p + 1) - 1 do
      let s = B1.unsafe_get esrc e and d = B1.unsafe_get edst e in
      if Bytes.unsafe_get a s <> '\000' || Bytes.unsafe_get a d <> '\000' then begin
        let ls = B1.unsafe_get label s and ld = B1.unsafe_get label d in
        if ls < ld then contribute w p (B1.unsafe_get dslot e) ls
        else if ld < ls then contribute w p (B1.unsafe_get sslot e) ld
      end
    done
  in
  let reduce w ch =
    let next = !nxt in
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    Bytes.fill next lo (hi - lo) '\000';
    let touched = ref 0 in
    for p = 0 to parts - 1 do
      let grp = (p * nchunks) + ch in
      for slot = B1.unsafe_get group_off grp to B1.unsafe_get group_off (grp + 1) - 1 do
        if Bytes.unsafe_get has slot <> '\000' then begin
          Ownership.read own ~worker:w ~item:ch slot;
          Bytes.unsafe_set has slot '\000';
          let v = B1.unsafe_get slot_vertex slot in
          if Bytes.unsafe_get next v = '\000' then begin
            Bytes.unsafe_set next v '\001';
            incr touched
          end;
          let m = B1.unsafe_get iacc slot in
          if m < B1.unsafe_get label v then B1.unsafe_set label v m
        end
      done
    done;
    chunk_touched.(ch) <- !touched
  in
  let step = ref 1 in
  Par_exec.with_pool ~domains (fun pool ->
      let continue_ = ref true in
      while !continue_ do
        Par_exec.iter_shadowed pool ~shadow:own ~n:parts (fun w p -> scatter w p);
        Par_exec.iter_shadowed pool ~shadow:own ~n:nchunks (fun w ch -> reduce w ch);
        let touched = Array.fold_left ( + ) 0 chunk_touched in
        let swap = !cur in
        cur := !nxt;
        nxt := swap;
        if touched = 0 || !step >= iterations then continue_ := false else incr step
      done);
  (own, Array.init n (fun v -> B1.unsafe_get label v))

let sssp_instr ?(max_supersteps = 2000) ~domains ~landmarks (c : Csr.t) =
  let own = Csr.shadow ~workers:domains c in
  let n = c.Csr.num_vertices in
  let k = Array.length landmarks in
  if k = 0 then invalid_arg "Race_check.sssp_instr: empty landmark set";
  let parts = c.Csr.num_partitions in
  let part_off = c.Csr.part_off in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  let sslot = c.Csr.src_slot in
  let group_off = c.Csr.group_off and slot_vertex = c.Csr.slot_vertex in
  let has = c.Csr.has in
  let infinity_dist = max_int in
  let dist = B1.create Bigarray.int Bigarray.c_layout (n * k) in
  B1.fill dist infinity_dist;
  Array.iteri (fun i l -> B1.unsafe_set dist ((l * k) + i) 0) landmarks;
  let macc = B1.create Bigarray.int Bigarray.c_layout (c.Csr.num_slots * k) in
  let cur = ref (Bytes.make n '\001') in
  let nxt = ref (Bytes.make n '\000') in
  let nchunks = c.Csr.num_chunks in
  let chunk_touched = Array.make (max nchunks 1) 0 in
  let scatter w p =
    let a = !cur in
    for e = B1.unsafe_get part_off p to B1.unsafe_get part_off (p + 1) - 1 do
      let s = B1.unsafe_get esrc e and d = B1.unsafe_get edst e in
      if Bytes.unsafe_get a s <> '\000' || Bytes.unsafe_get a d <> '\000' then begin
        let sbase = s * k and dbase = d * k in
        let improves = ref false in
        for j = 0 to k - 1 do
          let dd = B1.unsafe_get dist (dbase + j) in
          if dd <> infinity_dist && dd + 1 < B1.unsafe_get dist (sbase + j) then improves := true
        done;
        if !improves then begin
          let slot = B1.unsafe_get sslot e in
          let mbase = slot * k in
          Ownership.write own ~worker:w ~item:p slot;
          if Bytes.unsafe_get has slot = '\000' then begin
            Bytes.unsafe_set has slot '\001';
            for j = 0 to k - 1 do
              let dd = B1.unsafe_get dist (dbase + j) in
              B1.unsafe_set macc (mbase + j)
                (if dd = infinity_dist then infinity_dist else dd + 1)
            done
          end
          else
            for j = 0 to k - 1 do
              let dd = B1.unsafe_get dist (dbase + j) in
              let cand = if dd = infinity_dist then infinity_dist else dd + 1 in
              if cand < B1.unsafe_get macc (mbase + j) then B1.unsafe_set macc (mbase + j) cand
            done
        end
      end
    done
  in
  let reduce w ch =
    let next = !nxt in
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    Bytes.fill next lo (hi - lo) '\000';
    let touched = ref 0 in
    for p = 0 to parts - 1 do
      let grp = (p * nchunks) + ch in
      for slot = B1.unsafe_get group_off grp to B1.unsafe_get group_off (grp + 1) - 1 do
        if Bytes.unsafe_get has slot <> '\000' then begin
          Ownership.read own ~worker:w ~item:ch slot;
          Bytes.unsafe_set has slot '\000';
          let v = B1.unsafe_get slot_vertex slot in
          if Bytes.unsafe_get next v = '\000' then begin
            Bytes.unsafe_set next v '\001';
            incr touched
          end;
          let mbase = slot * k and vbase = v * k in
          for j = 0 to k - 1 do
            let m = B1.unsafe_get macc (mbase + j) in
            if m < B1.unsafe_get dist (vbase + j) then B1.unsafe_set dist (vbase + j) m
          done
        end
      done
    done;
    chunk_touched.(ch) <- !touched
  in
  let step = ref 1 in
  Par_exec.with_pool ~domains (fun pool ->
      let continue_ = ref true in
      while !continue_ do
        Par_exec.iter_shadowed pool ~shadow:own ~n:parts (fun w p -> scatter w p);
        Par_exec.iter_shadowed pool ~shadow:own ~n:nchunks (fun w ch -> reduce w ch);
        let touched = Array.fold_left ( + ) 0 chunk_touched in
        let swap = !cur in
        cur := !nxt;
        nxt := swap;
        if touched = 0 || !step >= max_supersteps then continue_ := false else incr step
      done);
  (own, Array.init n (fun v -> Array.init k (fun j -> B1.unsafe_get dist ((v * k) + j))))

let triangle_instr ~domains (c : Csr.t) =
  (* Triangle counting has no accumulator slots: the production scatter
     counts into worker-owned arrays (race-free by construction, not
     tracked) and the tracked discipline is the reduce phase's
     per-vertex writes — hence a vertex-space recorder. *)
  let own = Csr.shadow ~vertex_space:true ~workers:domains c in
  let n = c.Csr.num_vertices in
  let per_vertex = Array.make n 0 in
  let nchunks = c.Csr.num_chunks in
  let reduce worker_counts w ch =
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    for v = lo to hi - 1 do
      let total = ref 0 in
      for u = 0 to domains - 1 do
        total := !total + worker_counts.(u).(v)
      done;
      Ownership.write own ~worker:w ~item:ch v;
      per_vertex.(v) <- !total
    done
  in
  Par_exec.with_pool ~domains (fun pool ->
      let worker_counts = Cutfit_algo.Triangle_count.scatter_csr pool ~domains c in
      Par_exec.iter_shadowed pool ~shadow:own ~n:nchunks (fun w ch -> reduce worker_counts w ch));
  (own, per_vertex, Array.fold_left ( + ) 0 per_vertex / 3)

(* --- violation assembly -------------------------------------------- *)

let conflict_violations ~label ~domains own =
  List.map
    (fun (cf : Ownership.conflict) ->
      Violation.v ~suite ~rule:cf.Ownership.rule "%s (domains=%d): %a" label domains
        Ownership.pp_conflict cf)
    (Ownership.violations own)

(* The generic clean check: per domain count, the instrumented kernel
   must (1) record no ownership conflict and (2) digest-match the
   production kernel — the proof that the mirror instruments the code
   we actually ship. *)
let check_kernel ~label ~csr_digest ~instr domains_counts =
  let oracle = csr_digest () in
  List.concat_map
    (fun domains ->
      let own, digest = instr ~domains in
      let vs = conflict_violations ~label ~domains own in
      if String.compare digest oracle <> 0 then
        vs
        @ [
            Violation.v ~suite ~rule:"instr-vs-csr"
              "%s: instrumented digest %s (domains=%d) <> csr digest %s" label digest domains
              oracle;
          ]
      else vs)
    domains_counts

let pagerank ?(iterations = 10) ?(domains_counts = default_domains) pg =
  let c = Csr.build pg in
  check_kernel ~label:"pagerank"
    ~csr_digest:(fun () ->
      Fault_check.float_attrs_digest (Cutfit_algo.Pagerank.run_csr ~iterations c))
    ~instr:(fun ~domains ->
      let own, ranks = pagerank_instr ~iterations ~domains ~corruption:Clean c in
      (own, Fault_check.float_attrs_digest ranks))
    domains_counts

let connected_components ?(iterations = 10) ?(domains_counts = default_domains) pg =
  let c = Csr.build pg in
  check_kernel ~label:"connected-components"
    ~csr_digest:(fun () ->
      Fault_check.int_attrs_digest (Cutfit_algo.Connected_components.run_csr ~iterations c))
    ~instr:(fun ~domains ->
      let own, labels = cc_instr ~iterations ~domains c in
      (own, Fault_check.int_attrs_digest labels))
    domains_counts

let shortest_paths ?(max_supersteps = 2000) ?(domains_counts = default_domains) ~landmarks pg =
  let c = Csr.build pg in
  let digest distances = Fault_check.int_attrs_digest (Array.concat (Array.to_list distances)) in
  check_kernel ~label:"shortest-paths"
    ~csr_digest:(fun () -> digest (Cutfit_algo.Sssp.run_csr ~max_supersteps ~landmarks c))
    ~instr:(fun ~domains ->
      let own, distances = sssp_instr ~max_supersteps ~domains ~landmarks c in
      (own, digest distances))
    domains_counts

let triangle_count ?(domains_counts = default_domains) pg =
  let c = Csr.build pg in
  check_kernel ~label:"triangle-count"
    ~csr_digest:(fun () ->
      let per_vertex, total = Cutfit_algo.Triangle_count.run_csr c in
      Fault_check.int_attrs_digest (Array.append per_vertex [| total |]))
    ~instr:(fun ~domains ->
      let own, per_vertex, total = triangle_instr ~domains c in
      (own, Fault_check.int_attrs_digest (Array.append per_vertex [| total |])))
    domains_counts

(* --- seeded corruptions -------------------------------------------- *)

let seeded ~corruption ?(domains = 2) pg =
  let c = Csr.build pg in
  let own, _ = pagerank_instr ~iterations:2 ~domains ~corruption c in
  conflict_violations ~label:"seeded-pagerank" ~domains own

let seeded_foreign_write ?domains pg = seeded ~corruption:Foreign_write ?domains pg
let seeded_premature_read ?domains pg = seeded ~corruption:Premature_read ?domains pg

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
