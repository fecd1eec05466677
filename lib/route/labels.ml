module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Euler = Ln_graph.Euler

type t = {
  n : int;
  seq : int array; (* vertex at each tour position, length 2n-1 *)
  first : int array; (* first tour position of v *)
  droot : float array; (* weighted distance to root (prefix sums) *)
  rmq : Rmq.t; (* over hop depths of tour positions *)
}

let check tree =
  if not (Tree.covers_all tree) then
    invalid_arg "Labels.build: tree must span its host graph"

let build tree =
  check tree;
  let n = Graph.n (Tree.host tree) in
  let seq = (Euler.of_tree tree).Euler.seq in
  let first = Array.make n max_int in
  for i = Array.length seq - 1 downto 0 do
    first.(seq.(i)) <- i
  done;
  let droot = Array.init n (Tree.dist_to_root tree) in
  { n; seq; first; droot; rmq = Rmq.build (Array.map (Tree.depth_hops tree) seq) }

let check_vertex t v name =
  if v < 0 || v >= t.n then invalid_arg (name ^ ": vertex out of range")

let lca t u v =
  check_vertex t u "Labels.lca";
  check_vertex t v "Labels.lca";
  t.seq.(Rmq.argmin t.rmq t.first.(u) t.first.(v))

let dist t u v =
  let a = lca t u v in
  t.droot.(u) +. t.droot.(v) -. (2.0 *. t.droot.(a))
