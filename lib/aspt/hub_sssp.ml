module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Broadcast = Ln_prim.Broadcast
module Exchange = Ln_prim.Exchange

type t = {
  src : int;
  dist : float array;
  tree : Tree.t;
  hubs : int list;
  ledger : Ledger.t;
}

let run ?(edge_ok = fun _ -> true) ?(hub_factor = 1.0) ~rng g ~bfs ~src =
  Telemetry.span "hub-sssp" @@ fun () ->
  let n = Graph.n g in
  let ledger = Ledger.create () in
  (* Hub sampling: p = hub_factor * ln n / sqrt n, source always in. *)
  let fn = float_of_int (max n 2) in
  let p = Float.min 1.0 (hub_factor *. Float.log fn /. Float.sqrt fn) in
  let hubs = ref [ src ] in
  for v = 0 to n - 1 do
    if v <> src && Random.State.float rng 1.0 < p then hubs := v :: !hubs
  done;
  let hubs = !hubs in
  let hop_cap = (2 * int_of_float (Float.ceil (Float.sqrt fn))) + 2 in
  (* Hop-limited multi-source Bellman–Ford from the hub set. *)
  let tables =
    Telemetry.span ~ledger "hub/local-bf" (fun () ->
        fst (Bellman_ford.hop_limited ~edge_ok ~hop_cap g ~srcs:hubs))
  in
  (* Overlay relaxation: iterate broadcasts of hub source-distances. *)
  let est = Hashtbl.create (List.length hubs) in
  (* est: hub -> current source-distance upper bound *)
  Hashtbl.replace est src 0.0;
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    incr iterations;
    changed := false;
    let items = Array.make n [] in
    List.iter
      (fun h ->
        match Hashtbl.find_opt est h with
        | Some d -> items.(h) <- [ (h, d) ]
        | None -> ())
      hubs;
    let all =
      Telemetry.span ~ledger "hub/overlay-broadcast" (fun () ->
          fst (Broadcast.all_to_all ~words:(fun _ -> 3) g ~tree:bfs ~items))
    in
    (* Each hub relaxes through its local table (local computation). *)
    List.iter
      (fun h' ->
        let t = tables.(h') in
        List.iter
          (fun (h, d) ->
            let i = Bellman_ford.find t h in
            if i >= 0 then begin
              let cand = d +. Bellman_ford.dist t i in
              match Hashtbl.find_opt est h' with
              | Some cur when cur <= cand -> ()
              | _ ->
                Hashtbl.replace est h' cand;
                changed := true
            end)
          all.(h'))
      hubs
  done;
  (* Combine: every vertex's best hub-mediated estimate (local). *)
  let best = Array.make n infinity in
  List.iter
    (fun h ->
      match Hashtbl.find_opt est h with
      | None -> ()
      | Some d ->
        (* The final broadcast delivered (h, d) to everyone; each vertex
           combines with its local table. Done centrally over the
           shared arrays — pure local computation. *)
        for v = 0 to n - 1 do
          let i = Bellman_ford.find tables.(v) h in
          if i >= 0 then begin
            let c = d +. Bellman_ford.dist tables.(v) i in
            if c < best.(v) then best.(v) <- c
          end
        done)
    hubs;
  best.(src) <- 0.0;
  (* Repair sweep: exact Bellman–Ford from the upper bounds. *)
  let res =
    Telemetry.span ~ledger "hub/repair-bf" (fun () ->
        fst (Bellman_ford.sssp ~edge_ok ~init:best g ~src))
  in
  (* Consistent parent pointers: one exchange of final distances. *)
  let nbr_dists =
    Telemetry.span ~ledger "hub/parent-exchange" (fun () ->
        fst (Exchange.floats g res.Bellman_ford.dist))
  in
  let parent_edge = Array.make n (-1) in
  let eps_rel = 1e-9 in
  for v = 0 to n - 1 do
    if v <> src && res.Bellman_ford.dist.(v) < infinity then begin
      let dv = res.Bellman_ford.dist.(v) in
      let best_edge = ref (-1) in
      List.iter
        (fun (e, dnb) ->
          if edge_ok e then begin
            let through = dnb +. Graph.weight g e in
            if
              through <= dv +. (eps_rel *. (1.0 +. dv))
              && (!best_edge < 0 || e < !best_edge)
            then best_edge := e
          end)
        nbr_dists.(v);
      if !best_edge < 0 then failwith "Hub_sssp: no consistent parent (disconnected?)";
      parent_edge.(v) <- !best_edge
    end
  done;
  let tree_edges =
    Array.to_list parent_edge |> List.filter (fun e -> e >= 0)
  in
  let tree = Tree.of_edges g ~root:src tree_edges in
  { src; dist = res.Bellman_ford.dist; tree; hubs; ledger }
