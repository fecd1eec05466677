module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Union_find = Ln_graph.Union_find
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Bfs = Ln_prim.Bfs
module Exchange = Ln_prim.Exchange
module Keyed = Ln_prim.Keyed
module Forest = Ln_prim.Forest
module Tree_frags = Ln_prim.Tree_frags

type t = {
  graph : Graph.t;
  bfs : Tree.t;
  mst_edges : int list;
  base : Fragments.t;
  external_edges : int list;
  ledger : Ledger.t;
}

(* Candidate outgoing edge: (weight, edge id, target fragment). Ordered
   by (weight, id) — the library-wide MST tie-break. *)
let better (w1, e1, _) (w2, e2, _) = w1 < w2 || (w1 = w2 && e1 < e2)

let run ?(root = 0) ?diam_cap g =
  if not (Graph.is_connected g) then invalid_arg "Dist_mst.run: disconnected";
  Telemetry.span "dist-mst" @@ fun () ->
  let n = Graph.n g in
  let ledger = Ledger.create () in
  let bfs = Telemetry.span ~ledger "bfs-tree" (fun () -> fst (Bfs.tree g ~root)) in
  let sqrt_n = int_of_float (Float.ceil (Float.sqrt (float_of_int n))) in
  let diam_cap = match diam_cap with Some c -> c | None -> (2 * sqrt_n) + 2 in
  let base, phases = Boruvka.base_fragments g ~target:sqrt_n ~diam_cap in
  (* Each phase-1 Borůvka phase costs O(live fragment diameter) rounds
     in the GHS-with-counters execution this stands in for: an MWOE
     convergecast, a merge coordination and an id flood, all fragment-
     local. Charged from the measured diameters. *)
  List.iter
    (fun (p : Boruvka.phase) ->
      Ledger.charged ledger ~label:"kp98-phase1" ((3 * p.max_live_diameter) + 8))
    phases;
  (* Phase 2: global Borůvka over the base fragments. *)
  let cur = Array.copy base.Fragments.frag_of in
  let nkeys = base.Fragments.count in
  let external_edges = ref [] in
  let live = ref nkeys in
  while !live > 1 do
    let nbr_tables =
      Telemetry.span ~ledger "phase2/frag-exchange" (fun () ->
          fst (Exchange.ints g cur))
    in
    let local v =
      let best = ref None in
      List.iter
        (fun (edge, nbr_frag) ->
          if nbr_frag <> cur.(v) then begin
            let cand = (Graph.weight g edge, edge, nbr_frag) in
            match !best with
            | Some b when not (better cand b) -> ()
            | _ -> best := Some cand
          end)
        nbr_tables.(v);
      match !best with Some c -> [ (cur.(v), c) ] | None -> []
    in
    let table =
      Telemetry.span ~ledger "phase2/mwoe-aggregate" (fun () ->
          fst (Keyed.global_best ~value_words:3 g ~tree:bfs ~nkeys ~local ~better))
    in
    (* Deterministic local merge step — identical at every vertex since
       the table was broadcast; computed once here. *)
    let uf = Union_find.create nkeys in
    let chosen = Hashtbl.create 16 in
    Array.iteri
      (fun f cand ->
        match cand with
        | Some (_, edge, gfrag) ->
          ignore (Union_find.union uf f gfrag);
          Hashtbl.replace chosen edge ()
        | None -> ())
      table;
    Hashtbl.iter (fun edge () -> external_edges := edge :: !external_edges) chosen;
    (* Representative = smallest fragment index in the merged class. *)
    let min_rep = Array.make nkeys max_int in
    for f = 0 to nkeys - 1 do
      let r = Union_find.find uf f in
      if f < min_rep.(r) then min_rep.(r) <- f
    done;
    for v = 0 to n - 1 do
      cur.(v) <- min_rep.(Union_find.find uf cur.(v))
    done;
    let seen = Hashtbl.create 16 in
    Array.iter (fun f -> Hashtbl.replace seen f ()) cur;
    let now = Hashtbl.length seen in
    if now = !live && now > 1 then
      failwith "Dist_mst: no progress in phase 2 (internal error)";
    live := now
  done;
  let internal_all = Array.to_list base.Fragments.internal_edges |> List.concat in
  let mst_edges = List.sort Int.compare (internal_all @ !external_edges) in
  { graph = g; bfs; mst_edges; base; external_edges = !external_edges; ledger }

type rooted = { parent_edge : int array; frags : Tree_frags.t }

let root_at t ~rt =
  let g = t.graph and base = t.base in
  let frag_of = base.Fragments.frag_of and count = base.Fragments.count in
  (* Phase 2 leaves T' connected; under message loss it can choose two
     edges between one pair of fragments, and a T' with a cycle has no
     orientation. *)
  if List.length t.external_edges <> count - 1 then
    invalid_arg "Dist_mst.root_at: the fragment tree T' has a cycle";
  (* T' is global knowledge (phase-2 tables were broadcast): root it at
     rt's fragment. A child fragment's root r_i is the endpoint of the
     external edge e_F towards its parent fragment, and e_F is r_i's
     parent edge. *)
  let frag_adj = Array.make count [] in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      frag_adj.(frag_of.(u)) <- (id, v) :: frag_adj.(frag_of.(u));
      frag_adj.(frag_of.(v)) <- (id, u) :: frag_adj.(frag_of.(v)))
    t.external_edges;
  let root_edge = Array.make (Graph.n g) (-1) in
  let visited = Array.make count false in
  let top = frag_of.(rt) in
  visited.(top) <- true;
  let q = Queue.create () in
  Queue.push top q;
  while not (Queue.is_empty q) do
    List.iter
      (fun (id, z) ->
        let f = frag_of.(z) in
        if not visited.(f) then begin
          visited.(f) <- true;
          root_edge.(z) <- id;
          Queue.push f q
        end)
      frag_adj.(Queue.pop q)
  done;
  (* Native parallel flood inside every fragment from its root. *)
  let parent_edge =
    Telemetry.span ~ledger:t.ledger "root-orient" (fun () ->
        fst
          (Forest.orient g ~tree_edges:base.Fragments.tree_edges ~is_root:(fun v ->
               v = rt || root_edge.(v) >= 0)))
  in
  (* The flood leaves -1 at the r_i, whose parent edge is e_F. *)
  for v = 0 to Graph.n g - 1 do
    if parent_edge.(v) < 0 then parent_edge.(v) <- root_edge.(v)
  done;
  { parent_edge; frags = Tree_frags.of_partition g ~parent_edge ~frag_of ~count }
