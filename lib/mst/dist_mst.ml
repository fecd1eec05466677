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

type rooted = {
  tree : Tree.t;
  parent_edge : int array;
  frag_root : int array;
  frag_parent : int array;
  frag_parent_edge : int array;
}

let root_at t ~rt =
  let g = t.graph in
  let base = t.base in
  let count = base.Fragments.count in
  (* T' is global knowledge (phase-2 tables were broadcast): build the
     fragment tree and root it at the fragment containing rt. *)
  let frag_adj = Array.make count [] in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      let fu = base.Fragments.frag_of.(u) and fv = base.Fragments.frag_of.(v) in
      frag_adj.(fu) <- (id, fv, u) :: frag_adj.(fu);
      frag_adj.(fv) <- (id, fu, v) :: frag_adj.(fv))
    t.external_edges;
  let top = base.Fragments.frag_of.(rt) in
  let frag_parent = Array.make count (-1) in
  let frag_parent_edge = Array.make count (-1) in
  let frag_root = Array.make count (-1) in
  frag_root.(top) <- rt;
  let visited = Array.make count false in
  visited.(top) <- true;
  let q = Queue.create () in
  Queue.push top q;
  while not (Queue.is_empty q) do
    let f = Queue.pop q in
    List.iter
      (fun (id, f', endpoint_in_f) ->
        ignore endpoint_in_f;
        if not visited.(f') then begin
          visited.(f') <- true;
          frag_parent.(f') <- f;
          frag_parent_edge.(f') <- id;
          (* The child fragment's root is the endpoint of the external
             edge inside the child fragment. *)
          let u, v = Graph.endpoints g id in
          frag_root.(f') <-
            (if base.Fragments.frag_of.(u) = f' then u else v);
          Queue.push f' q
        end)
      frag_adj.(f)
  done;
  (* Native parallel flood inside every fragment from its root. *)
  let is_root v = frag_root.(base.Fragments.frag_of.(v)) = v in
  let parent_edge_internal =
    Telemetry.span ~ledger:t.ledger "root-orient" (fun () ->
        fst (Forest.orient g ~tree_edges:base.Fragments.tree_edges ~is_root))
  in
  let parent_edge =
    Array.mapi
      (fun v pe ->
        if v = rt then -1
        else if pe >= 0 then pe
        else
          (* Fragment roots: parent edge is the external edge e_F. *)
          frag_parent_edge.(base.Fragments.frag_of.(v)))
      parent_edge_internal
  in
  let tree = Tree.of_edges g ~root:rt t.mst_edges in
  { tree; parent_edge; frag_root; frag_parent; frag_parent_edge }
