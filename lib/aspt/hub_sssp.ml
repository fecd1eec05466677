module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Broadcast = Ln_prim.Broadcast
module Exchange = Ln_prim.Exchange

type t = {
  src : int;
  dist : float array;
  parent_edge : int array;
  tree : Tree.t;
  hubs : int list;
  ledger : Ledger.t;
}

type local_state = {
  table : (int, float * int * int) Hashtbl.t; (* hub -> dist, parent edge, hops *)
  queued : (int, unit) Hashtbl.t;
  queue : int Queue.t;
}

(* Hop-limited multi-source Bellman–Ford from the hub set: one
   (hub, dist, hops) update per edge per round; an entry propagates
   only while its hop count is below [hop_cap]. *)
let local_phase ~edge_ok ~hop_cap g hubs =
  let open Engine in
  let is_hub = Hashtbl.create 64 in
  List.iter (fun h -> Hashtbl.replace is_hub h ()) hubs;
  let enqueue s h =
    if not (Hashtbl.mem s.queued h) then begin
      Hashtbl.replace s.queued h ();
      Queue.push h s.queue
    end
  in
  (* Forward the oldest queued hub's entry over every allowed edge while
     its hop count is below the cap, then stay active while more are
     queued. *)
  let emit ctx s =
    if not (Queue.is_empty s.queue) then begin
      let h = Queue.pop s.queue in
      Hashtbl.remove s.queued h;
      (match Hashtbl.find_opt s.table h with
      | Some (d, _, hops) when hops < hop_cap ->
        let msg = (h, d, hops) in
        for p = ctx.off.(ctx.me) to ctx.off.(ctx.me + 1) - 1 do
          let e = ctx.adj_eid.(p) in
          if edge_ok e then ctx_send ctx ~via:e msg
        done
      | _ -> ());
      if not (Queue.is_empty s.queue) then ctx_stay_active ctx
    end;
    s
  in
  let program : (local_state, int * float * int) Engine.program =
    {
      name = "hub-local-bf";
      words = (fun _ -> 4);
      init =
        (fun ctx ->
          let s =
            { table = Hashtbl.create 8; queued = Hashtbl.create 8; queue = Queue.create () }
          in
          if Hashtbl.mem is_hub ctx.me then begin
            Hashtbl.replace s.table ctx.me (0.0, -1, 0);
            enqueue s ctx.me
          end;
          s);
      step =
        (fun ctx ~round:_ s ->
          while ctx_inbox_next ctx do
            let e = ctx_inbox_edge ctx in
            if edge_ok e then begin
              let h, d0, hops0 = ctx_inbox_payload ctx in
              let cand = d0 +. ctx.weight e in
              match Hashtbl.find_opt s.table h with
              | Some (d, _, _) when d <= cand -> ()
              | _ ->
                Hashtbl.replace s.table h (cand, e, hops0 + 1);
                enqueue s h
            end
          done;
          emit ctx s);
    }
  in
  let states, stats = Engine.run g program in
  (Array.map (fun s -> s.table) states, stats)

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
  let tables =
    Telemetry.span ~ledger "hub/local-bf" (fun () ->
        fst (local_phase ~edge_ok ~hop_cap g hubs))
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
        List.iter
          (fun (h, d) ->
            match Hashtbl.find_opt tables.(h') h with
            | Some (dl, _, _) ->
              let cand = d +. dl in
              (match Hashtbl.find_opt est h' with
              | Some cur when cur <= cand -> ()
              | _ ->
                Hashtbl.replace est h' cand;
                changed := true)
            | None -> ())
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
          match Hashtbl.find_opt tables.(v) h with
          | Some (dl, _, _) -> if d +. dl < best.(v) then best.(v) <- d +. dl
          | None -> ()
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
  { src; dist = res.Bellman_ford.dist; parent_edge; tree; hubs; ledger }
