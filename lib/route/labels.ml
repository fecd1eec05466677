module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Euler = Ln_graph.Euler

type t = {
  n : int;
  root : int;
  seq : int array; (* vertex at each tour position, length 2n-1 *)
  first : int array; (* first tour position of v (preorder rank order) *)
  last : int array; (* last tour position of v *)
  parent : int array; (* -1 at root *)
  depth : int array; (* hop depth *)
  droot : float array; (* weighted distance to root (prefix sums) *)
  children : int array array; (* tour (DFS) order *)
  child_first : int array array; (* first.(c) for each child, increasing *)
  rmq : Rmq.t; (* over hop depths of tour positions *)
}

let check tree =
  if not (Tree.covers_all tree) then
    invalid_arg "Labels.build: tree must span its host graph"

let build tree =
  check tree;
  let g = Tree.host tree in
  let n = Graph.n g in
  let tour = Euler.of_tree tree in
  let seq = tour.Euler.seq in
  let len = Array.length seq in
  let first = Array.make n max_int in
  let last = Array.make n (-1) in
  for i = len - 1 downto 0 do
    first.(seq.(i)) <- i
  done;
  for i = 0 to len - 1 do
    last.(seq.(i)) <- i
  done;
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  let droot = Array.make n 0.0 in
  for v = 0 to n - 1 do
    (match Tree.parent tree v with
    | Some (p, _) -> parent.(v) <- p
    | None -> ());
    depth.(v) <- Tree.depth_hops tree v;
    droot.(v) <- Tree.dist_to_root tree v
  done;
  let by_first a b = Int.compare first.(a) first.(b) in
  let children =
    Array.init n (fun v ->
        let cs = Array.of_list (Tree.children tree v) in
        Array.sort by_first cs;
        cs)
  in
  let child_first = Array.map (Array.map (fun c -> first.(c))) children in
  let tour_depth = Array.map (fun v -> depth.(v)) seq in
  { n; root = Tree.root tree; seq; first; last; parent; depth; droot;
    children; child_first; rmq = Rmq.build tour_depth }

let root t = t.root

let check_vertex t v name =
  if v < 0 || v >= t.n then invalid_arg (name ^ ": vertex out of range")

let is_ancestor t a v =
  check_vertex t a "Labels.is_ancestor";
  check_vertex t v "Labels.is_ancestor";
  t.first.(a) <= t.first.(v) && t.last.(v) <= t.last.(a)

let lca t u v =
  check_vertex t u "Labels.lca";
  check_vertex t v "Labels.lca";
  t.seq.(Rmq.argmin t.rmq t.first.(u) t.first.(v))

let dist t u v =
  let a = lca t u v in
  t.droot.(u) +. t.droot.(v) -. (2.0 *. t.droot.(a))

let dist_hops t u v =
  let a = lca t u v in
  t.depth.(u) + t.depth.(v) - (2 * t.depth.(a))

(* The child of [u] whose DFS interval contains [v]: the last child
   whose first position is <= first.(v). Children are interval-disjoint
   and ordered by first position, so binary search finds it. *)
let child_towards t u v =
  let firsts = t.child_first.(u) in
  let lo = ref 0 and hi = ref (Array.length firsts - 1) in
  let fv = t.first.(v) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if firsts.(mid) <= fv then lo := mid else hi := mid - 1
  done;
  t.children.(u).(!lo)

let next_hop t ~src ~dst =
  check_vertex t src "Labels.next_hop";
  check_vertex t dst "Labels.next_hop";
  if src = dst then None
  else if t.first.(src) <= t.first.(dst) && t.last.(dst) <= t.last.(src) then
    Some (child_towards t src dst)
  else Some t.parent.(src)

let route t ~src ~dst =
  let rec walk v acc =
    match next_hop t ~src:v ~dst with
    | None -> List.rev (v :: acc)
    | Some next -> walk next (v :: acc)
  in
  walk src []
