module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine
module Reliable = Ln_congest.Reliable

type state = { dist : int; parent_edge : int }

type msg = Join of int [@@unboxed] (* sender's BFS distance *)

(* Send [Join d] over every incident edge but [except], in ascending
   edge-id order. *)
let announce ctx ~except d =
  let open Engine in
  for p = ctx.off.(ctx.me) to ctx.off.(ctx.me + 1) - 1 do
    let e = ctx.adj_eid.(p) in
    if e <> except then ctx_send ctx ~via:e (Join d)
  done

let program root : (state, msg) Engine.program =
  let open Engine in
  {
    name = "bfs-tree";
    words = (fun (Join _) -> 1);
    init =
      (fun ctx ->
        if ctx.me = root then begin
          announce ctx ~except:(-1) 0;
          { dist = 0; parent_edge = -1 }
        end
        else { dist = -1; parent_edge = -1 });
    step =
      (fun ctx ~round:_ s ->
        if s.dist >= 0 then s
        else begin
          (* Adopt the smallest-id sender among this round's offers
             (the newest of equals). *)
          let from = ref max_int and edge = ref (-1) and dist = ref 0 in
          while ctx_inbox_next ctx do
            let f = ctx_inbox_from ctx in
            if f < !from then begin
              from := f;
              edge := ctx_inbox_edge ctx;
              let (Join d) = ctx_inbox_payload ctx in
              dist := d + 1
            end
          done;
          if !edge < 0 then s
          else begin
            announce ctx ~except:!edge !dist;
            { dist = !dist; parent_edge = !edge }
          end
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
  {
    name = "bfs-relax";
    words = (fun (Join _) -> 1);
    init =
      (fun ctx ->
        if ctx.me = root then begin
          announce ctx ~except:(-1) 0;
          { dist = 0; parent_edge = -1 }
        end
        else { dist = -1; parent_edge = -1 });
    step =
      (fun ctx ~round:_ s ->
        (* The lexicographically smallest offer [(d + 1, edge)]: if any
           offer improves on [s], this one does. *)
        let dist = ref max_int and edge = ref max_int in
        while ctx_inbox_next ctx do
          let (Join d) = ctx_inbox_payload ctx in
          let e = ctx_inbox_edge ctx in
          if d + 1 < !dist || (d + 1 = !dist && e < !edge) then begin
            dist := d + 1;
            edge := e
          end
        done;
        let d = !dist and e = !edge in
        if
          ctx.me <> root && d < max_int
          && (s.dist < 0 || d < s.dist || (d = s.dist && e < s.parent_edge))
        then begin
          announce ctx ~except:(-1) d;
          { dist = d; parent_edge = e }
        end
        else s);
  }

let dists_of states = Array.map (fun s -> s.dist) states

let layers g ~root =
  let states, stats = Engine.run g (relaxing_program ~root) in
  (dists_of states, stats)

let layers_reliable ?max_retries g ~root =
  let lifted = Reliable.lift ?max_retries (relaxing_program ~root) in
  let states, stats = Engine.run g lifted in
  (dists_of (Array.map Reliable.project states), stats)
