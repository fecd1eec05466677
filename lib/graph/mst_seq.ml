let forest g =
  let ids = Array.init (Graph.m g) (fun i -> i) in
  Array.sort (Graph.compare_edges g) ids;
  let uf = Union_find.create (Graph.n g) in
  let acc = ref [] in
  Array.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      if Union_find.union uf u v then acc := id :: !acc)
    ids;
  List.sort Int.compare !acc

let kruskal g =
  if not (Graph.is_connected g) then invalid_arg "Mst_seq.kruskal: disconnected";
  forest g

let prim g =
  if not (Graph.is_connected g) then invalid_arg "Mst_seq.prim: disconnected";
  let n = Graph.n g in
  if n = 0 then []
  else begin
    let in_tree = Array.make n false in
    let q = Pqueue.create () in
    let acc = ref [] in
    let add v =
      in_tree.(v) <- true;
      Graph.iter_neighbors g v (fun id u ->
          if not in_tree.(u) then Pqueue.push q (Graph.weight g id) id)
    in
    (* A queued edge has one endpoint in the tree; this is the other
       one, or -1 once both are in. *)
    let outside id =
      let a, b = Graph.endpoints g id in
      if not in_tree.(a) then a else if not in_tree.(b) then b else -1
    in
    add 0;
    let picked = ref 1 in
    while !picked < n do
      (* Among equal-weight candidates the heap order is arbitrary, so pop
         all minimum-weight entries and choose the smallest edge id whose
         endpoint is still outside the tree. *)
      let w0 = Pqueue.min_prio q in
      let batch = ref [] in
      while (not (Pqueue.is_empty q)) && Pqueue.min_prio q = w0 do
        batch := Pqueue.pop_min q :: !batch
      done;
      let live = List.filter (fun id -> outside id >= 0) !batch in
      match List.sort Int.compare live with
      | [] -> ()
      | id :: rest ->
        List.iter (fun id -> Pqueue.push q (Graph.weight g id) id) rest;
        acc := id :: !acc;
        add (outside id);
        incr picked
    done;
    List.sort Int.compare !acc
  end

let weight g = Graph.weight_of_edges g (kruskal g)
let forest_weight g = Graph.weight_of_edges g (forest g)

let is_spanning_tree g ids =
  List.length ids = Graph.n g - 1
  &&
  let uf = Union_find.create (Graph.n g) in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      ignore (Union_find.union uf u v))
    ids;
  Union_find.count uf = 1
