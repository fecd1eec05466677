type sssp = { dist : float array; parent_edge : int array }

(* Per-domain Dijkstra scratch: the heap and the settled marks, both
   grow-only. [settled.(v) = stamp] marks [v] settled in the current
   run, and every run takes a fresh stamp, so the marks are never
   cleared. A run that finds its domain's scratch busy (an [edge_ok]
   that runs Dijkstra itself) works on fresh scratch and drops it, the
   rule [Engine.acquire_scratch] follows. *)
type scratch = {
  q : Pqueue.t;
  mutable settled : int array;
  mutable stamp : int;
  mutable busy : bool;
}

let fresh_scratch () = { q = Pqueue.create (); settled = [||]; stamp = 0; busy = false }

let scratch_key = Domain.DLS.new_key fresh_scratch

let acquire_scratch n =
  let s = Domain.DLS.get scratch_key in
  let s = if s.busy then fresh_scratch () else s in
  if Array.length s.settled < n then s.settled <- Array.make n 0;
  s.stamp <- s.stamp + 1;
  Pqueue.clear s.q;
  s.busy <- true;
  s

(* The one Dijkstra loop. It fills [dist] (reset by the caller to
   [infinity]) from [seeds]; [parent_edge] and [source] are written
   only when non-empty. The first pop of [v] carries [dist.(v)]: every
   decrease of [dist.(v)] pushed [v] with the new value, and the heap
   pops it before any larger one. *)
let run ?(bound = infinity) ?edge_ok g ~dist ~parent_edge ~source seeds =
  let sc = acquire_scratch (Graph.n g) in
  Fun.protect ~finally:(fun () -> sc.busy <- false) @@ fun () ->
  let q = sc.q and settled = sc.settled and stamp = sc.stamp in
  let tree = Array.length parent_edge > 0 and multi = Array.length source > 0 in
  let { Graph.off; adj_eid; adj_dst; ew; _ } = Graph.view g in
  List.iter
    (fun s ->
      dist.(s) <- 0.0;
      if multi then source.(s) <- s;
      Pqueue.push q 0.0 s)
    seeds;
  while not (Pqueue.is_empty q) do
    let v = Pqueue.pop_min q in
    if settled.(v) <> stamp then begin
      settled.(v) <- stamp;
      let d = dist.(v) in
      if d <= bound then
        for i = off.(v) to off.(v + 1) - 1 do
          let id = adj_eid.(i) in
          let u = adj_dst.(i) in
          if settled.(u) <> stamp && (match edge_ok with None -> true | Some ok -> ok id)
          then begin
            let nd = d +. ew.(id) in
            if nd < dist.(u) && nd <= bound then begin
              dist.(u) <- nd;
              if tree then parent_edge.(u) <- id;
              if multi then source.(u) <- source.(v);
              Pqueue.push q nd u
            end
          end
        done
    end
  done

let dijkstra ?bound ?edge_ok g src =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent_edge = Array.make n (-1) in
  run ?bound ?edge_ok g ~dist ~parent_edge ~source:[||] [ src ];
  { dist; parent_edge }

let dijkstra_multi ?bound ?edge_ok g srcs =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent_edge = Array.make n (-1) in
  let source = Array.make n (-1) in
  run ?bound ?edge_ok g ~dist ~parent_edge ~source srcs;
  ({ dist; parent_edge }, source)

let dist_into ?edge_ok g src dist =
  if Array.length dist <> Graph.n g then invalid_arg "Paths.dist_into: array length <> n";
  Array.fill dist 0 (Array.length dist) infinity;
  run ?edge_ok g ~dist ~parent_edge:[||] ~source:[||] [ src ]

let distance ?edge_ok g u v =
  let r = dijkstra ?edge_ok g u in
  r.dist.(v)

let path_to r g v =
  if r.dist.(v) = infinity then None
  else begin
    let rec walk v acc =
      let id = r.parent_edge.(v) in
      if id < 0 then v :: acc else walk (Graph.other_end g id v) (v :: acc)
    in
    Some (walk v [])
  end

let bfs_hops g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let { Graph.off; adj_dst; _ } = Graph.view g in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let dv = dist.(v) + 1 in
    for i = off.(v) to off.(v + 1) - 1 do
      let u = adj_dst.(i) in
      if dist.(u) < 0 then begin
        dist.(u) <- dv;
        Queue.push u q
      end
    done
  done;
  dist

let eccentricity_hops g v =
  Array.fold_left (fun acc d -> max acc d) 0 (bfs_hops g v)

let all_pairs ?edge_ok g =
  Array.init (Graph.n g) (fun v -> (dijkstra ?edge_ok g v).dist)
