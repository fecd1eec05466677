module Graph = Ln_graph.Graph

type t = {
  count : int;
  frag_of : int array;
  root_of : int array;
  parent_frag : int array;
  frag_parent_edge : int array;
  internal_parent : int array;
  tree_edges : int list array;
  ext_children : (int * int) list array;
}

(* Everything but the partition follows from the parent column: a
   vertex whose parent lies in its own fragment keeps its parent edge
   as an internal one, and every other vertex is its fragment's root. *)
let of_partition g ~parent_edge ~frag_of ~count =
  let n = Graph.n g in
  let internal_parent =
    Array.init n (fun v ->
        if parent_edge.(v) < 0 then -1
        else begin
          let p = Graph.other_end g parent_edge.(v) v in
          if frag_of.(p) = frag_of.(v) then parent_edge.(v) else -1
        end)
  in
  let root_of = Array.make count (-1) in
  let tree_edges = Array.make n [] in
  for v = 0 to n - 1 do
    let e = internal_parent.(v) in
    if e < 0 then root_of.(frag_of.(v)) <- v
    else begin
      let p = Graph.other_end g e v in
      tree_edges.(v) <- e :: tree_edges.(v);
      tree_edges.(p) <- e :: tree_edges.(p)
    end
  done;
  let parent_frag = Array.make count (-1) in
  let frag_parent_edge = Array.make count (-1) in
  let ext_children = Array.make n [] in
  for f = 0 to count - 1 do
    let z = root_of.(f) in
    let e = parent_edge.(z) in
    if e >= 0 then begin
      let p = Graph.other_end g e z in
      parent_frag.(f) <- frag_of.(p);
      frag_parent_edge.(f) <- e;
      ext_children.(p) <- (z, e) :: ext_children.(p)
    end
  done;
  { count; frag_of; root_of; parent_frag; frag_parent_edge; internal_parent; tree_edges; ext_children }

let decompose g ~parent_edge ~root ~target_size =
  let n = Graph.n g in
  let children = Array.make n [] in
  for v = 0 to n - 1 do
    if parent_edge.(v) >= 0 then begin
      let p = Graph.other_end g parent_edge.(v) v in
      children.(p) <- v :: children.(p)
    end
  done;
  (* Post-order accumulation: cut when the pending component size
     reaches the target. [cut.(v)] marks v as a fragment root. *)
  let cut = Array.make n false in
  cut.(root) <- true;
  let pending = Array.make n 0 in
  (* iterative post-order *)
  let order = Array.make n 0 in
  let idx = ref 0 in
  let stack = Stack.create () in
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    order.(!idx) <- v;
    incr idx;
    List.iter (fun c -> Stack.push c stack) children.(v)
  done;
  for i = n - 1 downto 0 do
    let v = order.(i) in
    let size =
      List.fold_left (fun acc c -> if cut.(c) then acc else acc + pending.(c)) 1 children.(v)
    in
    if size >= target_size && v <> root then begin
      cut.(v) <- true;
      pending.(v) <- size
    end
    else pending.(v) <- size
  done;
  (* Fragment of v = nearest cut ancestor (inclusive), numbered in the
     order the depth-first [order] meets the cuts. *)
  let frag_of = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let v = order.(i) in
    if cut.(v) then begin
      frag_of.(v) <- !count;
      incr count
    end
    else frag_of.(v) <- frag_of.(Graph.other_end g parent_edge.(v) v)
  done;
  of_partition g ~parent_edge ~frag_of ~count:!count
