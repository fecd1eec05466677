module Graph = Ln_graph.Graph

type t = {
  len : int;
  vertex_of : int array;
  time_of : float array;
  next_edge : int array;
  positions_of : int list array;
}

let make g (tour : Euler_dist.t) =
  let n = Graph.n g in
  let len = (2 * n) - 1 in
  let vertex_of = Array.make len (-1) in
  let time_of = Array.make len 0.0 in
  for v = 0 to n - 1 do
    List.iter
      (fun (idx, time) ->
        vertex_of.(idx) <- v;
        time_of.(idx) <- time)
      tour.Euler_dist.appearances.(v)
  done;
  let parent_edge = tour.Euler_dist.rooted.Ln_mst.Dist_mst.parent_edge in
  (* Whether [a]'s parent edge leads to [b]. *)
  let up a b = parent_edge.(a) >= 0 && Graph.other_end g parent_edge.(a) a = b in
  let next_edge =
    Array.init len (fun j ->
        if j = len - 1 then -1
        else begin
          let a = vertex_of.(j) and b = vertex_of.(j + 1) in
          if up a b then parent_edge.(a)
          else if up b a then parent_edge.(b)
          else failwith "Tour_table: tour positions not tree-adjacent"
        end)
  in
  let positions_of = Array.make n [] in
  for j = len - 1 downto 0 do
    positions_of.(vertex_of.(j)) <- j :: positions_of.(vertex_of.(j))
  done;
  { len; vertex_of; time_of; next_edge; positions_of }
