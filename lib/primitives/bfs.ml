module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine
module Reliable = Ln_congest.Reliable

type state = { dist : int; parent_edge : int }

type msg = Join of int (* sender's BFS distance *)

let program root : (state, msg) Engine.program =
  let open Engine in
  {
    name = "bfs-tree";
    words = (fun (Join _) -> 1);
    init =
      (fun ctx ->
        if ctx.me = root then
          ( { dist = 0; parent_edge = -1 },
            List.rev
              (ctx_fold_neighbors ctx
                 (fun acc edge _ -> { via = edge; msg = Join 0 } :: acc)
                 []) )
        else ({ dist = -1; parent_edge = -1 }, []));
    step =
      (fun ctx ~round:_ s inbox ->
        if s.dist >= 0 then (s, [], false)
        else begin
          (* Adopt the smallest-id sender among this round's offers.
             Hot path: one allocation-free scan for the best offer,
             one direct unfold of the neighbor array for the sends. *)
          let rec best (b : msg received option) = function
            | [] -> b
            | (r : msg received) :: rest ->
              (match b with
              | Some bb when bb.from <= r.from -> best b rest
              | _ -> best (Some r) rest)
          in
          match best None inbox with
          | None -> (s, [], false)
          | Some r ->
            let (Join d) = r.payload in
            let s = { dist = d + 1; parent_edge = r.edge } in
            let msg = Join s.dist in
            (* Built by fold + reverse so the sends go out in ascending
               edge-id order; the fold itself is a tail-safe CSR walk
               (a hub on a power-law graph can have 10^5 neighbors). *)
            let outs =
              ctx_fold_neighbors ctx
                (fun acc edge _ ->
                  if edge = r.edge then acc else { via = edge; msg } :: acc)
                []
            in
            (s, List.rev outs, false)
        end);
  }

let tree g ~root =
  let states, stats = Engine.run g (program root) in
  let edges = ref [] in
  Array.iter (fun s -> if s.parent_edge >= 0 then edges := s.parent_edge :: !edges) states;
  (Tree.of_edges g ~root !edges, stats)

(* The flood above adopts its *first* offer, which measures hop
   distance only because fault-free synchronous floods advance in
   lockstep. Under message loss (or the retransmission delays of
   {!Ln_congest.Reliable}) first ≠ closest, so the robust variant is a
   Bellman-Ford-style relaxation: keep the lexicographically smallest
   [(dist, parent_edge)] seen so far and re-announce on every
   improvement. Its fixpoint — true BFS layers, parent = smallest edge
   id into the previous layer — depends only on which messages are
   *eventually* delivered, not on their timing, which is exactly the
   guarantee reliable links restore on a lossy network. *)
let relaxing_program ~root : (state, msg) Engine.program =
  let open Engine in
  let announce ctx d =
    let msg = Join d in
    List.rev
      (ctx_fold_neighbors ctx (fun acc edge _ -> { via = edge; msg } :: acc) [])
  in
  {
    name = "bfs-relax";
    words = (fun (Join _) -> 1);
    init =
      (fun ctx ->
        if ctx.me = root then ({ dist = 0; parent_edge = -1 }, announce ctx 0)
        else ({ dist = -1; parent_edge = -1 }, []));
    step =
      (fun ctx ~round:_ s inbox ->
        let better d e =
          s.dist < 0 || d < s.dist || (d = s.dist && e < s.parent_edge)
        in
        let best =
          List.fold_left
            (fun acc (r : msg received) ->
              let (Join d) = r.payload in
              let cand = (d + 1, r.edge) in
              match acc with
              | Some (bd, be) when (bd, be) <= cand -> acc
              | _ -> if better (d + 1) r.edge then Some cand else acc)
            None inbox
        in
        match best with
        | Some (d, e) when ctx.me <> root && better d e ->
          ({ dist = d; parent_edge = e }, announce ctx d, false)
        | _ -> (s, [], false));
  }

let dists_of states = Array.map (fun s -> s.dist) states

let layers g ~root =
  let states, stats = Engine.run g (relaxing_program ~root) in
  (dists_of states, stats)

let layers_reliable ?max_retries g ~root =
  let lifted = Reliable.lift ?max_retries (relaxing_program ~root) in
  let states, stats = Engine.run g lifted in
  (dists_of (Array.map Reliable.project states), stats)
