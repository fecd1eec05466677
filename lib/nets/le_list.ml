module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths
module Pqueue = Ln_graph.Pqueue

let compute g ~order =
  let n = Graph.n g in
  let best = Array.make n infinity in
  let lists = Array.make n [] in
  (* Process sources in π order; a vertex v enters the search from u
     only if d(u, v) < best(v) (strictly closer than every earlier-π
     source), in which case (u, d) joins LE(v). *)
  List.iter
    (fun u ->
      let dist = Hashtbl.create 32 in
      let q = Pqueue.create () in
      Hashtbl.replace dist u 0.0;
      Pqueue.push q 0.0 u;
      while not (Pqueue.is_empty q) do
        let d = Pqueue.min_prio q in
        let v = Pqueue.pop_min q in
        match Hashtbl.find_opt dist v with
        | Some dv when d > dv -> () (* stale *)
        | _ ->
          if d < best.(v) then begin
            best.(v) <- d;
            lists.(v) <- (u, d) :: lists.(v);
            Graph.iter_neighbors g v (fun e x ->
                let nd = d +. Graph.weight g e in
                if nd < best.(x) then begin
                  match Hashtbl.find_opt dist x with
                  | Some dx when dx <= nd -> ()
                  | _ ->
                    Hashtbl.replace dist x nd;
                    Pqueue.push q nd x
                end)
          end
      done)
    order;
  (* Lists were built in π order with strictly decreasing distances, so
     reversing sorts by increasing distance. *)
  Array.map List.rev lists

let check g ~order lists =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rank = Hashtbl.create 16 in
  List.iteri (fun i u -> Hashtbl.replace rank u i) order;
  let sps =
    List.map (fun u -> (u, (Paths.dijkstra g u).Paths.dist)) order
  in
  let n = Graph.n g in
  let rec verify v =
    if v >= n then Ok ()
    else begin
      (* Brute force: u ∈ LE(v) iff u is π-minimal among vertices of A
         within distance d(u,v) of v. *)
      let expected =
        List.filter
          (fun (u, du) ->
            let du_v = du.(v) in
            List.for_all
              (fun (w, dw) ->
                not (dw.(v) <= du_v && Hashtbl.find rank w < Hashtbl.find rank u))
              sps)
          sps
        |> List.map (fun (u, du) -> (u, du.(v)))
        |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
      in
      let got =
        List.sort (fun (_, a) (_, b) -> Float.compare a b) lists.(v)
      in
      if List.length expected <> List.length got then
        fail "vertex %d: list size %d, expected %d" v (List.length got)
          (List.length expected)
      else if
        List.for_all2
          (fun (u1, d1) (u2, d2) -> u1 = u2 && Float.abs (d1 -. d2) <= 1e-9 *. (1.0 +. d1))
          expected got
      then verify (v + 1)
      else fail "vertex %d: list mismatch" v
    end
  in
  verify 0
