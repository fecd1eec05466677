module Graph = Ln_graph.Graph
module Pqueue = Ln_graph.Pqueue

(* Bounded Dijkstra over an adjacency structure we grow incrementally:
   returns true iff d(u, v) <= bound in the current spanner. *)
let reachable_within adj n u v bound =
  let dist = Hashtbl.create 32 in
  let q = Pqueue.create () in
  ignore n;
  Hashtbl.replace dist u 0.0;
  Pqueue.push q 0.0 u;
  let found = ref false in
  let continue = ref true in
  while !continue && not (Pqueue.is_empty q) do
    let d = Pqueue.min_prio q in
    let x = Pqueue.pop_min q in
    if x = v then begin
      found := true;
      continue := false
    end
    else if d <= (match Hashtbl.find_opt dist x with Some dx -> dx | None -> infinity)
    then
      List.iter
        (fun (y, w) ->
          let nd = d +. w in
          if nd <= bound then begin
            match Hashtbl.find_opt dist y with
            | Some dy when dy <= nd -> ()
            | _ ->
              Hashtbl.replace dist y nd;
              Pqueue.push q nd y
          end)
        adj.(x)
  done;
  !found

let build g ~stretch =
  if stretch < 1.0 then invalid_arg "Greedy.build: stretch must be >= 1";
  let n = Graph.n g in
  let ids = Array.init (Graph.m g) (fun i -> i) in
  Array.sort (Graph.compare_edges g) ids;
  let adj = Array.make n [] in
  let chosen = ref [] in
  Array.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      let w = Graph.weight g id in
      if not (reachable_within adj n u v (stretch *. w)) then begin
        chosen := id :: !chosen;
        adj.(u) <- (v, w) :: adj.(u);
        adj.(v) <- (u, w) :: adj.(v)
      end)
    ids;
  List.sort Int.compare !chosen
