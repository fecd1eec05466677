module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Broadcast = Ln_prim.Broadcast
module Forest = Ln_prim.Forest
module Tree_frags = Ln_prim.Tree_frags
module Dist_mst = Ln_mst.Dist_mst
module Euler_dist = Ln_traversal.Euler_dist
module Tour_table = Ln_traversal.Tour_table
module Hub_sssp = Ln_aspt.Hub_sssp

type t = {
  rt : int;
  tree : Tree.t;
  edges : int list;
  h_edges : int list;
  break_positions : int list;
  stretch_bound : float;
  lightness_bound : float;
  ledger : Ledger.t;
}

(* ------------------------------------------------------------------ *)
(* BP1: native token scan, one token per √n-interval of L (§4.1).      *)

let bp1_scan g (tt : Tour_table.t) ~alpha ~epsilon ~trt_dist ledger =
  let open Engine in
  (* Positions held by each vertex (local knowledge). *)
  let my_positions = Array.make (Graph.n g) [] in
  for j = tt.Tour_table.len - 1 downto 0 do
    my_positions.(tt.Tour_table.vertex_of.(j)) <- j :: my_positions.(tt.Tour_table.vertex_of.(j))
  done;
  let forward ctx j ry =
    (* Send the token onward from position j carrying last-BP time ry,
       unless the interval ends here. *)
    if j + 1 < tt.Tour_table.len && (j + 1) mod alpha <> 0 then
      Engine.ctx_send ctx ~via:tt.Tour_table.next_edge.(j) (j + 1, ry)
  in
  let program : (int list, int * float) Engine.program =
    {
      name = "slt-bp1-scan";
      words = (fun _ -> 3);
      init =
        (fun ctx ->
          List.iter
            (fun j -> if j mod alpha = 0 then forward ctx j tt.Tour_table.time_of.(j))
            my_positions.(ctx.me);
          []);
      step =
        (fun ctx ~round:_ bps ->
          let bps = ref bps in
          while ctx_inbox_next ctx do
            let j, ry = ctx_inbox_payload ctx in
            if tt.Tour_table.time_of.(j) -. ry > epsilon *. trt_dist.(ctx.me) then begin
              bps := j :: !bps;
              forward ctx j tt.Tour_table.time_of.(j)
            end
            else forward ctx j ry
          done;
          !bps);
    }
  in
  let states =
    Telemetry.span ~ledger "slt/bp1-token-scan" (fun () ->
        fst (Engine.run g program))
  in
  let acc = ref [] in
  Array.iter (fun bps -> acc := bps @ !acc) states;
  !acc

(* ------------------------------------------------------------------ *)
(* BP2: central sparsification of the interval anchors (§4.1).         *)

let bp2_filter ~sparsify g (tt : Tour_table.t) ~alpha ~epsilon ~trt_dist ~bfs ledger =
  let n = Graph.n g in
  let items = Array.make n [] in
  for j = 0 to tt.Tour_table.len - 1 do
    if j mod alpha = 0 then begin
      let v = tt.Tour_table.vertex_of.(j) in
      items.(v) <- (j, tt.Tour_table.time_of.(j), trt_dist.(v)) :: items.(v)
    end
  done;
  let gathered =
    Telemetry.span ~ledger "slt/bp2-gather" (fun () ->
        fst (Broadcast.gather ~words:(fun _ -> 4) g ~tree:bfs ~items))
  in
  let anchors =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) gathered.(Tree.root bfs)
  in
  let chosen = ref [] in
  let last_r = ref neg_infinity in
  List.iter
    (fun (j, r, dv) ->
      let joins =
        if not sparsify then true (* ablation A1: keep every anchor *)
        else if j = 0 then true (* x_0 = rt always joins *)
        else r -. !last_r > epsilon *. dv
      in
      if joins then begin
        chosen := j :: !chosen;
        last_r := r
      end)
    anchors;
  let chosen = List.rev !chosen in
  Telemetry.span ~ledger "slt/bp2-broadcast" (fun () ->
      ignore (Broadcast.downcast ~words:(fun _ -> 1) g ~tree:bfs ~items:chosen));
  chosen

(* ------------------------------------------------------------------ *)
(* ABP marking over a fragment decomposition of T_rt (§4.2).           *)

let abp_marking g ~(spt : Hub_sssp.t) ~is_bp ~bfs ledger =
  let n = Graph.n g in
  let sqrt_n = int_of_float (Float.ceil (Float.sqrt (float_of_int (max n 1)))) in
  let frags =
    Tree_frags.decompose g ~parent_edge:(Tree.view spt.Hub_sssp.tree).Tree.parent_edge
      ~root:spt.Hub_sssp.src ~target_size:sqrt_n
  in
  (* Stand-in for the KP98-phase-1 fragment formation on T_rt. *)
  Ledger.charged ledger ~label:"slt/trt-fragments" ((3 * sqrt_n) + 8);
  (* Each fragment learns whether it contains a break point. *)
  let frag_bp =
    Telemetry.span ~ledger "slt/abp-local-up" (fun () ->
        let frag_bp, _, _ =
          Forest.up g ~parent_edge:frags.Tree_frags.internal_parent
            ~tree_edges:frags.Tree_frags.tree_edges
            ~compute:(fun v kids -> is_bp v || List.exists snd kids)
            ~words:(fun _ -> 1)
        in
        frag_bp)
  in
  (* Gather per-fragment bits; the hub computes the subtree ORs on T'
     and broadcasts them. *)
  let items = Array.make n [] in
  for f = 0 to frags.Tree_frags.count - 1 do
    let r = frags.Tree_frags.root_of.(f) in
    items.(r) <- (f, frag_bp.(r)) :: items.(r)
  done;
  let gathered =
    Telemetry.span ~ledger "slt/abp-gather" (fun () ->
        fst (Broadcast.gather ~words:(fun _ -> 2) g ~tree:bfs ~items))
  in
  let has_bp = Array.make frags.Tree_frags.count false in
  List.iter (fun (f, b) -> if b then has_bp.(f) <- true) gathered.(Tree.root bfs);
  let children_of = Array.make frags.Tree_frags.count [] in
  for f = 0 to frags.Tree_frags.count - 1 do
    let p = frags.Tree_frags.parent_frag.(f) in
    if p >= 0 then children_of.(p) <- f :: children_of.(p)
  done;
  let sub_bp = Array.make frags.Tree_frags.count false in
  let rec fill f =
    let b = List.fold_left (fun acc c -> fill c || acc) has_bp.(f) children_of.(f) in
    sub_bp.(f) <- b;
    b
  in
  for f = 0 to frags.Tree_frags.count - 1 do
    if frags.Tree_frags.parent_frag.(f) < 0 then ignore (fill f)
  done;
  let sub_list = Array.to_list (Array.mapi (fun f b -> (f, b)) sub_bp) in
  Telemetry.span ~ledger "slt/abp-broadcast" (fun () ->
      ignore (Broadcast.downcast ~words:(fun _ -> 2) g ~tree:bfs ~items:sub_list));
  (* Final fragment-local pass: ABP(v) = BP below v in T_rt. *)
  Telemetry.span ~ledger "slt/abp-final-up" (fun () ->
      let abp, _, _ =
        Forest.up g ~parent_edge:frags.Tree_frags.internal_parent
          ~tree_edges:frags.Tree_frags.tree_edges
          ~compute:(fun v kids ->
            is_bp v
            || List.exists snd kids
            || List.exists
                 (fun (z, _) -> sub_bp.(frags.Tree_frags.frag_of.(z)))
                 frags.Tree_frags.ext_children.(v))
          ~words:(fun _ -> 1)
      in
      abp)

(* ------------------------------------------------------------------ *)
(* The base construction for ε ∈ (0, 1].                               *)

let build ?(sparsify_anchors = true) ~rng g ~rt ~epsilon =
  if not (epsilon > 0.0 && epsilon <= 1.0) then
    invalid_arg "Slt.build: epsilon must be in (0, 1]";
  Telemetry.span "slt" @@ fun () ->
  let n = Graph.n g in
  let ledger = Ledger.create () in
  (* MST, Euler tour, and the (approximate) SPT T_rt. *)
  let dist, tour =
    Telemetry.span "mst+euler" (fun () ->
        let dist = Dist_mst.run ~root:rt g in
        (dist, Euler_dist.run dist ~rt))
  in
  Ledger.merge ledger ~prefix:"mst+euler" dist.Dist_mst.ledger;
  let bfs = dist.Dist_mst.bfs in
  let spt = Hub_sssp.run ~rng g ~bfs ~src:rt in
  Ledger.merge ledger ~prefix:"spt" spt.Hub_sssp.ledger;
  let tt = Tour_table.make g tour in
  let alpha = max 2 (int_of_float (Float.ceil (Float.sqrt (float_of_int n)))) in
  let trt_dist = spt.Hub_sssp.dist in
  let bp1 = bp1_scan g tt ~alpha ~epsilon ~trt_dist ledger in
  let bp2 = bp2_filter ~sparsify:sparsify_anchors g tt ~alpha ~epsilon ~trt_dist ~bfs ledger in
  let break_positions = List.sort_uniq Int.compare (bp1 @ bp2) in
  let bp_vertex = Array.make n false in
  List.iter (fun j -> bp_vertex.(tt.Tour_table.vertex_of.(j)) <- true) break_positions;
  let abp = abp_marking g ~spt ~is_bp:(fun v -> bp_vertex.(v)) ~bfs ledger in
  (* H = MST edges plus the T_rt parent edges of all marked vertices,
     as a mask over edge ids. *)
  let in_h = Bytes.make (Graph.m g) '\000' in
  List.iter (fun e -> Bytes.set in_h e '\001') dist.Dist_mst.mst_edges;
  let trt_parent = (Tree.view spt.Hub_sssp.tree).Tree.parent_edge in
  for v = 0 to n - 1 do
    if v <> rt && abp.(v) && trt_parent.(v) >= 0 then Bytes.set in_h trt_parent.(v) '\001'
  done;
  let edge_ok e = Bytes.get in_h e <> '\000' in
  let h_edges = List.filter edge_ok (List.init (Graph.m g) Fun.id) in
  (* Final SPT restricted to H. *)
  let final = Hub_sssp.run ~edge_ok ~rng g ~bfs ~src:rt in
  Ledger.merge ledger ~prefix:"slt-final-spt" final.Hub_sssp.ledger;
  {
    rt;
    tree = final.Hub_sssp.tree;
    edges = Tree.edges final.Hub_sssp.tree;
    h_edges;
    break_positions;
    stretch_bound = 1.0 +. (51.0 *. epsilon);
    lightness_bound = 1.0 +. (4.0 /. epsilon);
    ledger;
  }

(* ------------------------------------------------------------------ *)
(* BFN16 reduction: lightness 1+γ at stretch O(1/γ) (Lemma 5).         *)

let build_light ~rng g ~rt ~gamma =
  if not (gamma > 0.0 && gamma <= 1.0) then
    invalid_arg "Slt.build_light: gamma must be in (0, 1]";
  let eps0 = 1.0 in
  let base_lightness = 1.0 +. (4.0 /. eps0) in
  let base_stretch = 1.0 +. (51.0 *. eps0) in
  let delta = gamma /. base_lightness in
  (* Reweight: non-MST edges scaled up by 1/δ. The MST is unchanged
     (uniform scaling of non-tree edges preserves the cycle property),
     and [Graph.create] keeps edge ids stable for an identical edge
     set, so ids remain comparable. *)
  let mst = Ln_graph.Mst_seq.kruskal g in
  let in_mst = Array.make (Graph.m g) false in
  List.iter (fun e -> in_mst.(e) <- true) mst;
  let edges' =
    Graph.fold_edges g
      (fun id e acc ->
        { e with Graph.w = (if in_mst.(id) then e.Graph.w else e.Graph.w /. delta) }
        :: acc)
      []
  in
  let g' = Graph.create (Graph.n g) edges' in
  let base = build ~rng g' ~rt ~epsilon:eps0 in
  (* Re-expressed on the original graph: same edge ids, original
     weights. *)
  let tree = Tree.of_edges g ~root:rt base.edges in
  {
    base with
    tree;
    stretch_bound = base_stretch /. delta;
    lightness_bound = 1.0 +. gamma;
  }
