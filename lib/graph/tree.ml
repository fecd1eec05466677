type t = {
  g : Graph.t;
  root : int;
  parent : int array; (* -1 at root / outside *)
  parent_edge : int array;
  children : int list array;
  depth : int array; (* -1 outside *)
  droot : float array;
  edges : int list;
  size : int;
}

let of_edges g ~root ids =
  let n = Graph.n g in
  let adj = Array.make n [] in
  let seen = Hashtbl.create (List.length ids) in
  List.iter
    (fun id ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        let u, v = Graph.endpoints g id in
        adj.(u) <- (id, v) :: adj.(u);
        adj.(v) <- (id, u) :: adj.(v)
      end)
    ids;
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let droot = Array.make n infinity in
  let children = Array.make n [] in
  let q = Queue.create () in
  depth.(root) <- 0;
  droot.(root) <- 0.0;
  Queue.push root q;
  let count = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr count;
    List.iter
      (fun (id, u) ->
        if u <> parent.(v) || id <> parent_edge.(v) then begin
          if depth.(u) >= 0 then invalid_arg "Tree.of_edges: cycle in edge set";
          parent.(u) <- v;
          parent_edge.(u) <- id;
          depth.(u) <- depth.(v) + 1;
          droot.(u) <- droot.(v) +. Graph.weight g id;
          children.(v) <- u :: children.(v);
          Queue.push u q
        end)
      adj.(v)
  done;
  Array.iteri (fun v cs -> children.(v) <- List.sort Int.compare cs) children;
  let edges = Hashtbl.fold (fun id () acc -> id :: acc) seen [] in
  {
    g;
    root;
    parent;
    parent_edge;
    children;
    depth;
    droot;
    edges = List.sort Int.compare edges;
    size = !count;
  }

let host t = t.g
let root t = t.root

let children t v = t.children.(v)
let covers_all t = t.size = Graph.n t.g
let depth_hops t v = t.depth.(v)
let dist_to_root t v = t.droot.(v)

let dist t u v =
  (* Walk the deeper endpoint up until the two meet. *)
  if t.depth.(u) < 0 || t.depth.(v) < 0 then infinity
  else begin
    let a = ref u and b = ref v in
    while t.depth.(!a) > t.depth.(!b) do
      a := t.parent.(!a)
    done;
    while t.depth.(!b) > t.depth.(!a) do
      b := t.parent.(!b)
    done;
    while !a <> !b do
      a := t.parent.(!a);
      b := t.parent.(!b)
    done;
    t.droot.(u) +. t.droot.(v) -. (2.0 *. t.droot.(!a))
  end

let edges t = t.edges
let weight t = Graph.weight_of_edges t.g t.edges

let height_hops t = Array.fold_left max 0 t.depth

(* Declared last: the field labels shadow [t]'s, and everything above
   accesses [t.parent] / [t.parent_edge] with [t] in scope. *)
type view = { parent : int array; parent_edge : int array }

let view (t : t) : view = { parent = t.parent; parent_edge = t.parent_edge }
