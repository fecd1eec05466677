type t = {
  seq : int array;
  time : float array;
  positions : int list array;
  total : float;
}

type action = Enter of int * float | Return of int * float

let of_tree tree =
  if not (Tree.covers_all tree) then invalid_arg "Euler.of_tree: tree must span the graph";
  let g = Tree.host tree in
  let n = Graph.n g in
  let len = (2 * n) - 1 in
  let seq = Array.make (max len 1) (-1) in
  let time = Array.make (max len 1) 0.0 in
  let pos = ref 0 in
  let clock = ref 0.0 in
  let emit v =
    seq.(!pos) <- v;
    time.(!pos) <- !clock;
    incr pos
  in
  let parent_edge = (Tree.view tree).Tree.parent_edge in
  let edge_w c = Graph.weight g parent_edge.(c) in
  let actions = Stack.create () in
  Stack.push (Enter (Tree.root tree, 0.0)) actions;
  while not (Stack.is_empty actions) do
    match Stack.pop actions with
    | Enter (v, w) ->
      clock := !clock +. w;
      emit v;
      (* Children in increasing id order; push in reverse so the
         smallest id is processed first, each followed by the return
         step back into [v]. *)
      List.iter
        (fun c ->
          let wc = edge_w c in
          Stack.push (Return (v, wc)) actions;
          Stack.push (Enter (c, wc)) actions)
        (List.rev (Tree.children tree v))
    | Return (v, w) ->
      clock := !clock +. w;
      emit v
  done;
  assert (!pos = len);
  let positions = Array.make n [] in
  for i = len - 1 downto 0 do
    positions.(seq.(i)) <- i :: positions.(seq.(i))
  done;
  { seq; time; positions; total = (if len > 0 then time.(len - 1) else 0.0) }

let length t = Array.length t.seq

let check tree t =
  let g = Tree.host tree in
  let n = Graph.n g in
  let { Tree.parent; parent_edge } = Tree.view tree in
  let len = Array.length t.seq in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if len <> (2 * n) - 1 then fail "tour length %d <> 2n-1 = %d" len ((2 * n) - 1)
  else begin
    let rec scan i =
      if i >= len - 1 then Ok ()
      else begin
        let a = t.seq.(i) and b = t.seq.(i + 1) in
        let ok_edge =
          if parent.(a) = b then Some parent_edge.(a)
          else if parent.(b) = a then Some parent_edge.(b)
          else None
        in
        match ok_edge with
        | None -> fail "positions %d,%d not tree-adjacent" i (i + 1)
        | Some id ->
          let w = Graph.weight g id in
          if Float.abs (t.time.(i + 1) -. t.time.(i) -. w) > 1e-9 *. (1.0 +. w) then
            fail "time step at %d is %g, expected %g" i (t.time.(i + 1) -. t.time.(i)) w
          else scan (i + 1)
      end
    in
    match scan 0 with
    | Error _ as e -> e
    | Ok () ->
      let deg = Array.make n 0 in
      List.iter
        (fun id ->
          let u, v = Graph.endpoints g id in
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1)
        (Tree.edges tree);
      let rec check_counts v =
        if v >= n then Ok ()
        else begin
          let expected = if v = Tree.root tree then deg.(v) + 1 else deg.(v) in
          let got = List.length t.positions.(v) in
          if got <> expected then fail "vertex %d appears %d times, expected %d" v got expected
          else check_counts (v + 1)
        end
      in
      check_counts 0
  end
