module Graph = Ln_graph.Graph

type t = {
  count : int;
  frag_of : int array;
  tree_edges : int list array;
  members : int list array;
  internal_edges : int list array;
  hop_diameter : int array;
}

let tree_hop_diameter adj start =
  let far src =
    let dist = Hashtbl.create 16 in
    Hashtbl.replace dist src 0;
    let q = Queue.create () in
    Queue.push src q;
    let last = ref (src, 0) in
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      let d = Hashtbl.find dist v in
      if d > snd !last then last := (v, d);
      List.iter
        (fun u ->
          if not (Hashtbl.mem dist u) then begin
            Hashtbl.replace dist u (d + 1);
            Queue.push u q
          end)
        (adj v)
    done;
    !last
  in
  let a, _ = far start in
  let _, d = far a in
  d

let make g ~frag_of ~internal =
  let n = Graph.n g in
  let count = Array.length internal in
  let members = Array.make count [] in
  for v = n - 1 downto 0 do
    let f = frag_of.(v) in
    if f < 0 || f >= count then invalid_arg "Fragments.make: fragment index out of range";
    members.(f) <- v :: members.(f)
  done;
  let tree_edges = Array.make n [] in
  Array.iteri
    (fun f edges ->
      List.iter
        (fun id ->
          let u, v = Graph.endpoints g id in
          if frag_of.(u) <> f || frag_of.(v) <> f then
            invalid_arg "Fragments.make: internal edge leaves its fragment";
          tree_edges.(u) <- id :: tree_edges.(u);
          tree_edges.(v) <- id :: tree_edges.(v))
        edges)
    internal;
  let hop_diameter =
    Array.init count (fun f ->
        match members.(f) with
        | [] -> invalid_arg "Fragments.make: empty fragment"
        | start :: _ ->
          let adj v =
            List.map (fun id -> Graph.other_end g id v) tree_edges.(v)
          in
          (* Check spanning-tree-ness: edges = members - 1 and connected. *)
          let nm = List.length members.(f) in
          let ne = List.length internal.(f) in
          if ne <> nm - 1 then
            invalid_arg "Fragments.make: fragment edge count is not |members|-1";
          let d = tree_hop_diameter adj start in
          (* Connectivity check: BFS reach count. *)
          let seen = Hashtbl.create nm in
          let q = Queue.create () in
          Hashtbl.replace seen start ();
          Queue.push start q;
          while not (Queue.is_empty q) do
            let v = Queue.pop q in
            List.iter
              (fun u ->
                if not (Hashtbl.mem seen u) then begin
                  Hashtbl.replace seen u ();
                  Queue.push u q
                end)
              (adj v)
          done;
          if Hashtbl.length seen <> nm then
            invalid_arg "Fragments.make: fragment tree disconnected";
          d)
  in
  { count; frag_of; tree_edges; members; internal_edges = internal; hop_diameter }

let max_hop_diameter t = Array.fold_left max 0 t.hop_diameter

let check g t =
  try
    let rebuilt = make g ~frag_of:t.frag_of ~internal:t.internal_edges in
    if rebuilt.hop_diameter <> t.hop_diameter then Error "hop diameters inconsistent"
    else Ok ()
  with Invalid_argument m -> Error m
