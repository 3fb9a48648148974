(* Community structure of a YouTube-like network: connected components
   plus triangle counting — and a demonstration of the paper's headline
   claim that the best partitioner for one algorithm (PageRank) is not
   the best for another (Triangle Count) on the very same graph.

   Run with: dune exec examples/community_structure.exe *)

let () =
  let g =
    Cutfit.Social.generate
      {
        Cutfit.Social.default with
        Cutfit.Social.vertices = 12_000;
        edges = 60_000;
        alpha_out = 2.1;
        alpha_in = 2.1;
        symmetry = 1.0;
        islands = 6;
        seed = 2008L;
      }
  in
  Fmt.pr "community graph: %a@.@." Cutfit.Characterize.pp (Cutfit.Characterize.compute g);

  (* Components: the islands plus the giant community. *)
  let p = Cutfit.Pipeline.prepare ~algorithm:Cutfit.Advisor.Connected_components g in
  let labels, trace = Cutfit.Pipeline.connected_components ~iterations:50 p in
  let sizes = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      Hashtbl.replace sizes l (1 + Option.value ~default:0 (Hashtbl.find_opt sizes l)))
    labels;
  Fmt.pr "components: %d (largest %d vertices), %a@." (Hashtbl.length sizes)
    (Hashtbl.fold (fun _ s acc -> max s acc) sizes 0)
    Cutfit.Trace.pp_summary trace;

  (* Triangles and clustering: how tightly knit is the community? *)
  let pt = Cutfit.Pipeline.prepare ~algorithm:Cutfit.Advisor.Triangle_count g in
  let per_vertex, ttrace = Cutfit.Pipeline.triangles pt in
  Fmt.pr "triangles: %s (clustering coefficient %.4f), %a@."
    (Cutfit.Summary.commas (Array.fold_left ( + ) 0 per_vertex / 3))
    (Cutfit.Triangles.global_clustering g)
    Cutfit.Trace.pp_summary ttrace;
  let busiest = ref 0 in
  Array.iteri (fun v c -> if c > per_vertex.(!busiest) then busiest := v) per_vertex;
  Fmt.pr "most clustered vertex: %d (%d triangles, degree %d)@.@." !busiest
    per_vertex.(!busiest)
    (Cutfit.Graph.out_degree g !busiest);

  (* Cut to fit: the cheapest partitioner depends on the computation. *)
  let best algorithm =
    match Cutfit.Pipeline.compare_partitioners ~algorithm g with
    | (name, t) :: _ -> (name, t)
    | [] -> assert false
  in
  let pr_best, pr_t = best Cutfit.Advisor.Pagerank in
  let tr_best, tr_t = best Cutfit.Advisor.Triangle_count in
  Fmt.pr "best partitioner for PageRank:       %-6s (%.2fs)@." pr_best pr_t;
  Fmt.pr "best partitioner for Triangle Count: %-6s (%.2fs)@." tr_best tr_t;
  if pr_best <> tr_best then
    Fmt.pr "-> same graph, different computation, different cut: tailor the partitioning!@."
  else
    Fmt.pr "-> on this graph the same strategy wins both; the paper shows that is not the rule.@."
