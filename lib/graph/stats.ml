let lightness g ids =
  (* The forest weight equals the MST weight on connected graphs and,
     unlike [Mst_seq.weight], is defined (rather than raising) on
     disconnected ones — lightness against the spanning-forest baseline
     is the natural per-component generalization. *)
  let w_mst = Mst_seq.forest_weight g in
  let w = Graph.weight_of_edges g ids in
  (* Degenerate baseline: an edgeless (or single-vertex) graph has
     forest weight 0, and the only subgraph it admits is the empty one
     — perfectly light, 1.0, not 0/0 = nan. The [infinity] arm is
     unreachable while edge weights are strictly positive, but keeps
     the function total if that invariant ever relaxes. *)
  if w_mst > 0.0 then w /. w_mst else if w <= 0.0 then 1.0 else infinity

let in_set g ids =
  let mask = Array.make (max 1 (Graph.m g)) false in
  List.iter (fun id -> mask.(id) <- true) ids;
  fun id -> mask.(id)

(* Stretch of one edge: spanner distance over edge weight.
   [Graph.create] rejects non-positive weights, so the [w > 0] branch
   is the only one reachable through the public API; the fallback is
   defense in depth against a future relaxation of that invariant —
   a 0/0 here would make nan, which fails every [>] comparison and
   silently vanishes from the aggregated maximum. *)
let edge_stretch ~dist ~w =
  if w > 0.0 then dist /. w else if dist <= 0.0 then 1.0 else infinity

let max_edge_stretch g ids =
  let edge_ok = in_set g ids in
  let worst = ref 1.0 in
  (* Dijkstra in H from each vertex once; check its incident edges. *)
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v > 0 then begin
      let sp = Paths.dijkstra ~edge_ok g v in
      Graph.iter_neighbors g v (fun id u ->
          if u > v then begin
            let s = edge_stretch ~dist:sp.dist.(u) ~w:(Graph.weight g id) in
            if s > !worst then worst := s
          end)
    end
  done;
  !worst

let sampled_edge_stretch rng g ids ~samples =
  let m = Graph.m g in
  if m = 0 then 1.0
  else begin
    let edge_ok = in_set g ids in
    let worst = ref 1.0 in
    (* Group sampled edges by endpoint to reuse Dijkstra runs. *)
    let chosen = Array.init samples (fun _ -> Random.State.int rng m) in
    let by_src = Hashtbl.create samples in
    Array.iter
      (fun id ->
        let u, _ = Graph.endpoints g id in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_src u) in
        Hashtbl.replace by_src u (id :: cur))
      chosen;
    Hashtbl.iter
      (fun u ids_here ->
        let sp = Paths.dijkstra ~edge_ok g u in
        List.iter
          (fun id ->
            let v = Graph.other_end g id u in
            let s = edge_stretch ~dist:sp.dist.(v) ~w:(Graph.weight g id) in
            if s > !worst then worst := s)
          ids_here)
      by_src;
    !worst
  end

let tree_root_stretch g tree ~root =
  let exact = Paths.dijkstra g root in
  let worst = ref 1.0 in
  (* Vertices unreachable in [g] itself have no defined stretch (the
     exact distance is [infinity]; dividing would make inf/inf = nan):
     skip them explicitly rather than relying on nan losing the [>]
     below. *)
  for v = 0 to Graph.n g - 1 do
    if v <> root && exact.dist.(v) > 0.0 && Float.is_finite exact.dist.(v)
    then begin
      let s = Tree.dist_to_root tree v /. exact.dist.(v) in
      if s > !worst then worst := s
    end
  done;
  !worst
