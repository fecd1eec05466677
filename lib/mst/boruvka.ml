module Graph = Ln_graph.Graph
module Union_find = Ln_graph.Union_find

type phase = {
  fragments_before : int;
  merges : int;
  max_live_diameter : int;
}

let base_fragments g ~target ~diam_cap =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Boruvka.base_fragments: empty graph";
  let uf = Union_find.create n in
  let forest_adj = Array.make n [] in
  let chosen = ref [] in
  let adj v = List.map (fun id -> Graph.other_end g id v) forest_adj.(v) in
  (* Per-root cached diameter, recomputed after each phase. *)
  let diameter_of = Hashtbl.create 64 in
  let frag_diameter v =
    let r = Union_find.find uf v in
    match Hashtbl.find_opt diameter_of r with
    | Some d -> d
    | None ->
      let d = Fragments.tree_hop_diameter adj r in
      Hashtbl.replace diameter_of r d;
      d
  in
  let phases = ref [] in
  let continue = ref (Union_find.count uf > target) in
  while !continue do
    let fragments_before = Union_find.count uf in
    (* Per-fragment MWOE among live (diameter <= cap) fragments. *)
    let proposal : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let max_live_diameter = ref 0 in
    let consider root id =
      match Hashtbl.find_opt proposal root with
      | Some best when Graph.compare_edges g best id <= 0 -> ()
      | _ -> Hashtbl.replace proposal root id
    in
    Graph.iter_edges g (fun id e ->
        let ru = Union_find.find uf e.u and rv = Union_find.find uf e.v in
        if ru <> rv then begin
          if frag_diameter e.u <= diam_cap then consider ru id;
          if frag_diameter e.v <= diam_cap then consider rv id
        end);
    Hashtbl.iter
      (fun root _ ->
        let d = frag_diameter root in
        if d > !max_live_diameter then max_live_diameter := d)
      proposal;
    (* Greedy diameter-capped acceptance, in (weight, id) order: a
       proposal is taken only if the merged fragment's hop-diameter
       upper bound (d1 + d2 + 1) stays within the cap. This is the
       chain-cutting of controlled-GHS: plain Borůvka contracts whole
       proposal chains and can create fragments of diameter Θ(n) (e.g.
       on a unit-weight path). *)
    let merges = ref 0 in
    let diam_bound = Hashtbl.create 64 in
    let bound_of v =
      let r = Union_find.find uf v in
      match Hashtbl.find_opt diam_bound r with
      | Some d -> d
      | None -> frag_diameter r
    in
    let sorted =
      Hashtbl.fold (fun _root id acc -> id :: acc) proposal []
      |> List.sort_uniq (Graph.compare_edges g)
    in
    List.iter
      (fun id ->
        let u, v = Graph.endpoints g id in
        if not (Union_find.same uf u v) then begin
          let d1 = bound_of u and d2 = bound_of v in
          if d1 + d2 + 1 <= diam_cap then begin
            ignore (Union_find.union uf u v);
            incr merges;
            chosen := id :: !chosen;
            forest_adj.(u) <- id :: forest_adj.(u);
            forest_adj.(v) <- id :: forest_adj.(v);
            Hashtbl.replace diam_bound (Union_find.find uf u) (d1 + d2 + 1)
          end
        end)
      sorted;
    phases :=
      { fragments_before; merges = !merges; max_live_diameter = !max_live_diameter }
      :: !phases;
    Hashtbl.reset diameter_of;
    continue := !merges > 0 && Union_find.count uf > target
  done;
  (* Normalize fragment indices 0..count-1 in order of first member. *)
  let index_of_root = Hashtbl.create 64 in
  let count = ref 0 in
  let frag_of =
    Array.init n (fun v ->
        let r = Union_find.find uf v in
        match Hashtbl.find_opt index_of_root r with
        | Some i -> i
        | None ->
          let i = !count in
          incr count;
          Hashtbl.replace index_of_root r i;
          i)
  in
  let internal = Array.make !count [] in
  List.iter
    (fun id ->
      let u, _ = Graph.endpoints g id in
      let f = frag_of.(u) in
      internal.(f) <- id :: internal.(f))
    !chosen;
  (Fragments.make g ~frag_of ~internal, List.rev !phases)
