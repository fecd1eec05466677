module Graph = Ln_graph.Graph
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Broadcast = Ln_prim.Broadcast
module Forest = Ln_prim.Forest
module Fragments = Ln_mst.Fragments
module Dist_mst = Ln_mst.Dist_mst

type t = {
  rt : int;
  rooted : Dist_mst.rooted;
  appearances : (int * float) list array;
  interval : (float * float) array;
  g_value : float array;
  total : float;
}

(* One full tour computation for an arbitrary edge-length function
   [len] (actual weights for visiting times, constant 1 for indices).
   Returns per-vertex global entry time and subtree tour length g. *)
let pass (dist : Dist_mst.t) (rooted : Dist_mst.rooted) ~rt ~len ledger ~label =
  let g = dist.Dist_mst.graph in
  let base = dist.Dist_mst.base in
  let n = Graph.n g in
  let count = base.Fragments.count in
  let frag_of = base.Fragments.frag_of in
  (* Fragment-internal parent pointers: the MST parent edge when it
     stays inside the fragment (locally decidable). *)
  let internal_parent =
    Array.init n (fun v ->
        let pe = rooted.Dist_mst.parent_edge.(v) in
        if pe < 0 then -1
        else begin
          let p = Graph.other_end g pe v in
          if frag_of.(p) = frag_of.(v) then pe else -1
        end)
  in
  (* External children: fragment roots hanging off this vertex in T. *)
  let ext_children = Array.make n [] in
  for f = 0 to count - 1 do
    let e = rooted.Dist_mst.frag_parent_edge.(f) in
    if e >= 0 then begin
      let z = rooted.Dist_mst.frag_root.(f) in
      let p = Graph.other_end g e z in
      ext_children.(p) <- (z, e) :: ext_children.(p)
    end
  done;
  (* Step A: local tour lengths ℓ(v) (fragment-local up-pass). *)
  let sum_children kids extra =
    List.fold_left (fun acc (_, (x, e)) -> acc +. x +. (2.0 *. len e)) extra kids
  in
  (* Pass values tagged with the edge they travelled over so the parent
     knows the connecting weight: child sends (value, its parent edge). *)
  let ell =
    Telemetry.span ~ledger (label ^ "/local-lengths") (fun () ->
        let ell, _, _ =
          Forest.up g ~parent_edge:internal_parent
            ~tree_edges:base.Fragments.tree_edges
            ~compute:(fun v kids ->
              let total = sum_children kids 0.0 in
              (total, internal_parent.(v)))
        in
        ell)
  in
  let ell = Array.map fst ell in
  (* Step B: broadcast the fragment roots' ℓ values (Lemma 1). *)
  let items =
    Array.make n []
  in
  for f = 0 to count - 1 do
    let r = rooted.Dist_mst.frag_root.(f) in
    items.(r) <- (f, ell.(r)) :: items.(r)
  done;
  let all =
    Telemetry.span ~ledger (label ^ "/ell-broadcast") (fun () ->
        fst (Broadcast.all_to_all ~words:(fun _ -> 2) g ~tree:dist.Dist_mst.bfs ~items))
  in
  let ell_root = Array.make count 0.0 in
  List.iter (fun (f, l) -> ell_root.(f) <- l) all.(rt);
  (* Step C: global lengths of fragment roots, locally from T'. *)
  let frag_children = Array.make count [] in
  for f = 0 to count - 1 do
    let p = rooted.Dist_mst.frag_parent.(f) in
    if p >= 0 then frag_children.(p) <- f :: frag_children.(p)
  done;
  let g_root = Array.make count nan in
  let rec compute_g_root f =
    if Float.is_nan g_root.(f) then begin
      let acc = ref ell_root.(f) in
      List.iter
        (fun f' ->
          compute_g_root f';
          acc := !acc +. g_root.(f') +. (2.0 *. len rooted.Dist_mst.frag_parent_edge.(f')))
        frag_children.(f);
      g_root.(f) <- !acc
    end
  in
  for f = 0 to count - 1 do
    compute_g_root f
  done;
  (* Step D: global lengths g(v) (second fragment-local up-pass);
     external children contribute their globally-known g. *)
  let ext_contribution v =
    List.fold_left
      (fun acc (z, e) -> acc +. g_root.(frag_of.(z)) +. (2.0 *. len e))
      0.0 ext_children.(v)
  in
  let g_pairs, g_kids =
    Telemetry.span ~ledger (label ^ "/global-lengths") (fun () ->
        let g_pairs, g_kids, _ =
          Forest.up g ~parent_edge:internal_parent
            ~tree_edges:base.Fragments.tree_edges
            ~compute:(fun v kids ->
              (sum_children kids (ext_contribution v), internal_parent.(v)))
        in
        (g_pairs, g_kids))
  in
  let g_value = Array.map fst g_pairs in
  (* Every vertex's ordered T-children with (child, edge, g(child)). *)
  let ordered_children =
    Array.init n (fun v ->
        let internal = List.map (fun (c, (gc, e)) -> (c, e, gc)) g_kids.(v) in
        let external_ =
          List.map (fun (z, e) -> (z, e, g_root.(frag_of.(z)))) ext_children.(v)
        in
        List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) (internal @ external_))
  in
  (* Offset of a child relative to its parent's entry time. *)
  let child_offset v child =
    let rec scan acc = function
      | [] -> invalid_arg "Euler_dist: unknown child"
      | (z, e, gz) :: rest ->
        if z = child then acc +. len e else scan (acc +. gz +. (2.0 *. len e)) rest
    in
    scan 0.0 ordered_children.(v)
  in
  (* Step E: local DFS entry offsets within each fragment. *)
  let local_start =
    Telemetry.span ~ledger (label ^ "/intervals-down") (fun () ->
        fst
          (Forest.down g ~parent_edge:internal_parent
             ~tree_edges:base.Fragments.tree_edges
             ~seed:(fun v -> if internal_parent.(v) = -1 then Some 0.0 else None)
             ~emit:(fun v a child -> a +. child_offset v child)))
  in
  let local_start = Array.map (function Some a -> a | None -> 0.0) local_start in
  (* One native round across external edges: each parent endpoint tells
     the child fragment's root its offset within the parent fragment. *)
  let ext_offset_program : (float option, float) Engine.list_program =
    let open Engine in
    {
      name = "euler-ext-offsets";
      words = (fun _ -> 2);
      init =
        (fun ctx ->
          let outs =
            List.map
              (fun (z, e) ->
                { via = e; msg = local_start.(ctx.me) +. child_offset ctx.me z })
              ext_children.(ctx.me)
          in
          (None, outs));
      step =
        (fun _ctx ~round:_ s inbox ->
          match inbox with
          | { payload; _ } :: _ -> (Some payload, [], false)
          | [] -> (s, [], false));
    }
  in
  let ext_offsets =
    Telemetry.span ~ledger (label ^ "/ext-offsets") (fun () ->
        fst (Engine.run g (Engine.of_lists ext_offset_program)))
  in
  (* Step F: gather per-fragment offsets at rt, prefix-combine along
     T', broadcast the shifts. *)
  let gather_items = Array.make n [] in
  for f = 0 to count - 1 do
    let r = rooted.Dist_mst.frag_root.(f) in
    if f <> frag_of.(rt) then begin
      let b = match ext_offsets.(r) with Some b -> b | None -> 0.0 in
      gather_items.(r) <- (f, b) :: gather_items.(r)
    end
  done;
  let gathered =
    Telemetry.span ~ledger (label ^ "/offsets-gather") (fun () ->
        fst
          (Broadcast.gather ~words:(fun _ -> 2) g ~tree:dist.Dist_mst.bfs
             ~items:gather_items))
  in
  (* The shift combination is performed at the BFS-tree root (the hub
     all global communication is pipelined through). *)
  let hub = Ln_graph.Tree.root dist.Dist_mst.bfs in
  let b_of = Array.make count 0.0 in
  List.iter (fun (f, b) -> b_of.(f) <- b) gathered.(hub);
  let shift = Array.make count nan in
  let top = frag_of.(rt) in
  shift.(top) <- 0.0;
  let rec compute_shift f =
    if Float.is_nan shift.(f) then begin
      let p = rooted.Dist_mst.frag_parent.(f) in
      compute_shift p;
      shift.(f) <- shift.(p) +. b_of.(f)
    end
  in
  for f = 0 to count - 1 do
    compute_shift f
  done;
  let shifts_list = Array.to_list (Array.mapi (fun f s -> (f, s)) shift) in
  Telemetry.span ~ledger (label ^ "/shifts-broadcast") (fun () ->
      ignore
        (Broadcast.downcast ~words:(fun _ -> 2) g ~tree:dist.Dist_mst.bfs
           ~items:shifts_list));
  (* Global entry times. *)
  let entry = Array.init n (fun v -> shift.(frag_of.(v)) +. local_start.(v)) in
  (entry, g_value, ordered_children)

let run dist ~rt =
  Telemetry.span "euler-tour" @@ fun () ->
  let g = dist.Dist_mst.graph in
  let n = Graph.n g in
  let ledger = dist.Dist_mst.ledger in
  let rooted = Dist_mst.root_at dist ~rt in
  let time_entry, g_value, ordered_w =
    pass dist rooted ~rt ~len:(Graph.weight g) ledger ~label:"euler-w"
  in
  let idx_entry, _, ordered_u =
    pass dist rooted ~rt ~len:(fun _ -> 1.0) ledger ~label:"euler-i"
  in
  let appearances =
    Array.init n (fun v ->
        (* First appearance at entry; one more after each child. *)
        let rec walk tw ti acc kids_w kids_u =
          match kids_w, kids_u with
          | [], [] -> List.rev acc
          | (_, ew, gw) :: rw, (_, _, gu) :: ru ->
            let tw = tw +. gw +. (2.0 *. Graph.weight g ew) in
            let ti = ti +. gu +. 2.0 in
            walk tw ti ((int_of_float (Float.round ti), tw) :: acc) rw ru
          | _ -> assert false
        in
        let t0 = time_entry.(v) and i0 = idx_entry.(v) in
        walk t0 i0
          [ (int_of_float (Float.round i0), t0) ]
          ordered_w.(v) ordered_u.(v))
  in
  let interval =
    Array.init n (fun v ->
        let first = time_entry.(v) in
        (first, first +. g_value.(v)))
  in
  {
    rt;
    rooted;
    appearances;
    interval;
    g_value;
    total = g_value.(rt);
  }
