type kind = Road | Social_undirected | Social_directed

type spec = {
  name : string;
  display : string;
  kind : kind;
  params : [ `Grid of Grid.params | `Social of Social.params ];
  paper_vertices : int;
  paper_edges : int;
}

let road name display ~width ~height ~keep ~diag ~seed ~paper_vertices ~paper_edges =
  {
    name;
    display;
    kind = Road;
    params =
      `Grid
        { Grid.width; height; hole_prob = 0.03; keep_prob = keep; diagonal_prob = diag; seed };
    paper_vertices;
    paper_edges;
  }

let social name display ~kind ~params ~paper_vertices ~paper_edges =
  { name; display; kind; params = `Social params; paper_vertices; paper_edges }

(* Scaled ~100x down from Table 1 (the follow crawls ~170x, Orkut ~150x,
   to keep the full evaluation matrix laptop-sized). Degree exponents,
   symmetry, leaf fractions and island counts target the Table 1 /
   Figure 1-2 shapes of each original. *)
let all =
  [
    road "roadnet_pa" "RoadNet-PA" ~width:103 ~height:103 ~keep:0.76 ~diag:0.06 ~seed:101L
      ~paper_vertices:1_088_092 ~paper_edges:3_083_796;
    social "youtube" "YouTube" ~kind:Social_undirected
      ~params:
        {
          Social.default with
          vertices = 11_340;
          edges = 29_000;
          alpha_out = 2.1;
          alpha_in = 2.1;
          symmetry = 1.0;
          weight_cap_ratio = 60.0;
          seed = 102L;
        }
      ~paper_vertices:1_134_890 ~paper_edges:2_987_624;
    road "roadnet_tx" "RoadNet-TX" ~width:118 ~height:118 ~keep:0.74 ~diag:0.06 ~seed:103L
      ~paper_vertices:1_379_917 ~paper_edges:3_843_320;
    social "pocek" "Pocek" ~kind:Social_directed
      ~params:
        {
          Social.default with
          vertices = 16_300;
          edges = 306_000;
          alpha_out = 2.3;
          alpha_in = 2.3;
          symmetry = 0.5434;
          zero_in_frac = 0.0694;
          zero_out_frac = 0.1225;
          weight_cap_ratio = 12.0;
          seed = 104L;
        }
      ~paper_vertices:1_632_803 ~paper_edges:30_622_564;
    road "roadnet_ca" "RoadNet-CA" ~width:142 ~height:142 ~keep:0.74 ~diag:0.06 ~seed:105L
      ~paper_vertices:1_965_206 ~paper_edges:5_533_214;
    social "orkut" "Orkut" ~kind:Social_undirected
      ~params:
        {
          Social.default with
          vertices = 20_480;
          edges = 780_000;
          alpha_out = 2.0;
          alpha_in = 2.0;
          symmetry = 1.0;
          weight_cap_ratio = 12.0;
          seed = 106L;
        }
      ~paper_vertices:3_072_441 ~paper_edges:117_185_083;
    social "soclivejournal" "socLiveJournal" ~kind:Social_directed
      ~params:
        {
          Social.default with
          vertices = 48_570;
          edges = 689_000;
          alpha_out = 2.15;
          alpha_in = 2.15;
          symmetry = 0.7503;
          zero_in_frac = 0.0739;
          zero_out_frac = 0.1112;
          weight_cap_ratio = 12.0;
          islands = 18;
          seed = 107L;
        }
      ~paper_vertices:4_847_571 ~paper_edges:68_993_773;
    social "follow_jul" "follow-jul" ~kind:Social_directed
      ~params:
        {
          vertices = 100_000;
          edges = 800_000;
          alpha_out = 1.75;
          alpha_in = 2.05;
          symmetry = 0.3757;
          zero_in_frac = 0.4694;
          zero_out_frac = 0.2565;
          superstar_share = 0.15;
          weight_cap_ratio = infinity;
          islands = 5;
          seed = 108L;
        }
      ~paper_vertices:17_172_142 ~paper_edges:136_725_781;
    social "follow_dec" "follow-dec" ~kind:Social_directed
      ~params:
        {
          vertices = 154_000;
          edges = 1_200_000;
          alpha_out = 1.75;
          alpha_in = 2.05;
          symmetry = 0.3757;
          zero_in_frac = 0.5505;
          zero_out_frac = 0.1834;
          superstar_share = 0.15;
          weight_cap_ratio = infinity;
          islands = 5;
          seed = 109L;
        }
      ~paper_vertices:26_339_971 ~paper_edges:204_912_093;
  ]

let find name =
  match List.find_opt (fun s -> s.name = name) all with
  | Some s -> s
  | None -> raise Not_found

let names = List.map (fun s -> s.name) all

let cache : (string, Cutfit_graph.Graph.t) Hashtbl.t = Hashtbl.create 16

let generate spec =
  match Hashtbl.find_opt cache spec.name with
  | Some g -> g
  | None ->
      let g =
        match spec.params with
        | `Grid p -> Grid.generate p
        | `Social p -> Social.generate p
      in
      Hashtbl.replace cache spec.name g;
      g

let clear_cache () = Hashtbl.reset cache
