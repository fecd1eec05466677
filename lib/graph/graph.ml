type edge = { u : int; v : int; w : float }

(* Flat CSR core. Edges are columnar: [eu]/[ev] hold the endpoints
   (normalized so [eu.(id) < ev.(id)]) and [ew] the weight, all indexed
   by edge id. Incidence is packed: vertex [v]'s incident edges live at
   positions [off.(v) .. off.(v+1)-1] of the parallel [adj_eid] /
   [adj_dst] columns. Within a vertex, incidences are sorted by edge id
   (the fill loop walks ids ascending), which is the same order the
   historical tuple-array adjacency used — programs that depend on
   neighbor order (the CONGEST engine's inbox chains, greedy
   tie-breaks) see identical sequences. *)
type t = {
  n : int;
  m : int;
  eu : int array;
  ev : int array;
  ew : float array;
  off : int array; (* length n+1 *)
  adj_eid : int array; (* length 2m *)
  adj_dst : int array; (* length 2m *)
}

(* ------------------------------------------------------------------ *)
(* Construction.

   [build_csr] is the one constructor everything funnels through. It
   consumes parallel endpoint/weight arrays (no [edge] record list is
   ever materialized), normalizes and validates each entry with the
   same checks and error text the historical [create] used, drops
   self-loops, sorts in place, and collapses parallel edges keeping the
   lightest — all with O(m) ints of temporary storage. *)

(* In-place quicksort of the parallel (key, weight) columns over
   [0 .. len-1], ordered by key then weight. Median-of-three pivot,
   insertion sort below 16, recurse on the smaller side first so stack
   depth stays O(log len) even on adversarial inputs. *)
let sort_key_weight key wt len =
  let swap i j =
    let k = key.(i) in
    key.(i) <- key.(j);
    key.(j) <- k;
    let w = wt.(i) in
    wt.(i) <- wt.(j);
    wt.(j) <- w
  in
  let less i j = key.(i) < key.(j) || (key.(i) = key.(j) && wt.(i) < wt.(j)) in
  let less_kw k w i = k < key.(i) || (k = key.(i) && w < wt.(i)) in
  let rec qsort lo hi =
    if hi - lo < 16 then begin
      for i = lo + 1 to hi do
        let k = key.(i) and w = wt.(i) in
        let j = ref (i - 1) in
        while !j >= lo && less_kw k w !j do
          key.(!j + 1) <- key.(!j);
          wt.(!j + 1) <- wt.(!j);
          decr j
        done;
        key.(!j + 1) <- k;
        wt.(!j + 1) <- w
      done
    end
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if less mid lo then swap lo mid;
      if less hi lo then swap lo hi;
      if less hi mid then swap mid hi;
      let pk = key.(mid) and pw = wt.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while key.(!i) < pk || (key.(!i) = pk && wt.(!i) < pw) do
          incr i
        done;
        while pk < key.(!j) || (pk = key.(!j) && pw < wt.(!j)) do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      (* Smaller half first keeps the recursion logarithmic. *)
      if !j - lo < hi - !i then begin
        if lo < !j then qsort lo !j;
        if !i < hi then qsort !i hi
      end
      else begin
        if !i < hi then qsort !i hi;
        if lo < !j then qsort lo !j
      end
    end
  in
  if len > 1 then qsort 0 (len - 1)

let build_csr ~who ~n us vs ws ~len =
  if n < 0 then invalid_arg (who ^ ": negative n");
  if n > 0x3FFFFFFF then invalid_arg (who ^ ": n too large for packed keys");
  (* Pass 1: validate, normalize (u < v), drop self-loops, pack each
     surviving edge's endpoints into one int key = u*n + v, and note
     whether the keys arrive strictly ascending. *)
  let key = Array.make (max 1 len) 0 in
  let wt = Array.make (max 1 len) 0.0 in
  let k = ref 0 in
  let ascending = ref true in
  for i = 0 to len - 1 do
    let u = us.(i) and v = vs.(i) and w = ws.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg (who ^ ": endpoint out of range");
    if w <= 0.0 || Float.is_nan w then
      invalid_arg (who ^ ": weight must be positive and finite");
    if u <> v then begin
      let kk = if u < v then (u * n) + v else (v * n) + u in
      if !k > 0 && kk <= key.(!k - 1) then ascending := false;
      key.(!k) <- kk;
      wt.(!k) <- w;
      incr k
    end
  done;
  let len = !k in
  (* Pass 2: sort by (key, weight); equal keys are parallel edges and
     the lightest sorts first, so the dedup scan keeps it. The result
     is edge ids ordered by (u, v) — exactly the historical [create]
     ordering, so ids are stable across the representation change.
     Strictly ascending keys are already that order with no parallel
     edges (an artifact's stored edge list, a graph's own columns), so
     they skip both the sort and the scan. *)
  let m =
    if !ascending then len
    else begin
      sort_key_weight key wt len;
      let m = ref 0 in
      for i = 0 to len - 1 do
        if i = 0 || key.(i) <> key.(i - 1) then begin
          key.(!m) <- key.(i);
          wt.(!m) <- wt.(i);
          incr m
        end
      done;
      !m
    end
  in
  (* Unpack in place: [key] becomes the [eu] column. The scratch
     columns are the edge columns whenever their length is already
     [max 1 m] (no self-loop or parallel edge was dropped). *)
  let ev = Array.make (max 1 m) 0 in
  for id = 0 to m - 1 do
    ev.(id) <- key.(id) mod n;
    key.(id) <- key.(id) / n
  done;
  let fit a = if Array.length a = max 1 m then a else Array.sub a 0 (max 1 m) in
  let eu = fit key and ew = fit wt in
  (* Pass 3: counting sort into the packed incidence columns. Walking
     ids ascending leaves each vertex's slice sorted by edge id. *)
  let off = Array.make (n + 1) 0 in
  for id = 0 to m - 1 do
    off.(eu.(id) + 1) <- off.(eu.(id) + 1) + 1;
    off.(ev.(id) + 1) <- off.(ev.(id) + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let adj_eid = Array.make (max 1 (2 * m)) 0 in
  let adj_dst = Array.make (max 1 (2 * m)) 0 in
  let cursor = Array.copy off in
  for id = 0 to m - 1 do
    let u = eu.(id) and v = ev.(id) in
    adj_eid.(cursor.(u)) <- id;
    adj_dst.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    adj_eid.(cursor.(v)) <- id;
    adj_dst.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  { n; m; eu; ev; ew; off; adj_eid; adj_dst }

let of_edge_arrays ~n ?len us vs ws =
  let len =
    match len with
    | Some l ->
      if l < 0 || l > Array.length us then
        invalid_arg "Graph.of_edge_arrays: bad len";
      l
    | None -> Array.length us
  in
  if Array.length vs < len || Array.length ws < len then
    invalid_arg "Graph.of_edge_arrays: endpoint/weight arrays shorter than len";
  build_csr ~who:"Graph.of_edge_arrays" ~n us vs ws ~len

let create n edge_list =
  let len = List.length edge_list in
  let us = Array.make (max 1 len) 0 in
  let vs = Array.make (max 1 len) 0 in
  let ws = Array.make (max 1 len) 0.0 in
  List.iteri
    (fun i e ->
      us.(i) <- e.u;
      vs.(i) <- e.v;
      ws.(i) <- e.w)
    edge_list;
  build_csr ~who:"Graph.create" ~n us vs ws ~len

(* ------------------------------------------------------------------ *)
(* Accessors. *)

let n g = g.n
let m g = g.m
let edge g id = { u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) }
let weight g id = g.ew.(id)
let endpoints g id = (g.eu.(id), g.ev.(id))

let other_end g id x =
  if g.eu.(id) = x then g.ev.(id)
  else if g.ev.(id) = x then g.eu.(id)
  else invalid_arg "Graph.other_end: vertex not an endpoint"

let degree g v = g.off.(v + 1) - g.off.(v)

let iter_neighbors g v f =
  let eid = g.adj_eid and dst = g.adj_dst in
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f eid.(i) dst.(i)
  done

let fold_neighbors g v f acc =
  let eid = g.adj_eid and dst = g.adj_dst in
  let acc = ref acc in
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f !acc eid.(i) dst.(i)
  done;
  !acc

let iter_edges g f =
  for id = 0 to g.m - 1 do
    f id { u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) }
  done

let fold_edges g f acc =
  let acc = ref acc in
  for id = 0 to g.m - 1 do
    acc := f id { u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) } !acc
  done;
  !acc

let find_edge g u v =
  let u, v = if degree g u <= degree g v then (u, v) else (v, u) in
  let lo = g.off.(u) and hi = g.off.(u + 1) in
  let rec scan i =
    if i >= hi then None
    else if g.adj_dst.(i) = v then Some g.adj_eid.(i)
    else scan (i + 1)
  in
  scan lo

let total_weight g =
  let acc = ref 0.0 in
  for id = 0 to g.m - 1 do
    acc := !acc +. g.ew.(id)
  done;
  !acc

let weight_of_edges g ids = List.fold_left (fun acc id -> acc +. weight g id) 0.0 ids

let subgraph g ids =
  let ids = Array.of_list ids in
  let k = Array.length ids in
  let us = Array.make (max 1 k) 0 in
  let vs = Array.make (max 1 k) 0 in
  let ws = Array.make (max 1 k) 0.0 in
  Array.iteri
    (fun i id ->
      us.(i) <- g.eu.(id);
      vs.(i) <- g.ev.(id);
      ws.(i) <- g.ew.(id))
    ids;
  let sub = build_csr ~who:"Graph.create" ~n:g.n us vs ws ~len:k in
  (* The builder sorts and dedups; rebuild the id mapping by lookup. *)
  let map = Hashtbl.create (max 16 k) in
  Array.iter (fun id -> Hashtbl.replace map (g.eu.(id), g.ev.(id)) id) ids;
  let original_id sub_id = Hashtbl.find map (sub.eu.(sub_id), sub.ev.(sub_id)) in
  (sub, original_id)

let components g =
  let comp = Array.make g.n (-1) in
  let c = ref 0 in
  let stack = Stack.create () in
  for s = 0 to g.n - 1 do
    if comp.(s) < 0 then begin
      Stack.push s stack;
      comp.(s) <- !c;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        for i = g.off.(v) to g.off.(v + 1) - 1 do
          let u = g.adj_dst.(i) in
          if comp.(u) < 0 then begin
            comp.(u) <- !c;
            Stack.push u stack
          end
        done
      done;
      incr c
    end
  done;
  (!c, comp)

let is_connected g =
  if g.n <= 1 then true
  else
    let c, _ = components g in
    c = 1

let bfs_hops g src =
  let dist = Array.make g.n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let dv = dist.(v) in
    for i = g.off.(v) to g.off.(v + 1) - 1 do
      let u = g.adj_dst.(i) in
      if dist.(u) < 0 then begin
        dist.(u) <- dv + 1;
        Queue.push u q
      end
    done
  done;
  dist

let hop_diameter g =
  if not (is_connected g) then invalid_arg "Graph.hop_diameter: disconnected";
  (* Exact: BFS from every vertex. Fine at simulation scale. *)
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let dist = bfs_hops g v in
    Array.iter (fun d -> if d > !best then best := d) dist
  done;
  !best

let weight_aspect_ratio g =
  if g.m = 0 then 1.0
  else begin
    let lo = ref infinity and hi = ref 0.0 in
    for id = 0 to g.m - 1 do
      let w = g.ew.(id) in
      if w < !lo then lo := w;
      if w > !hi then hi := w
    done;
    !hi /. !lo
  end

let compare_edges g a b =
  let c = Float.compare g.ew.(a) g.ew.(b) in
  if c <> 0 then c else Int.compare a b

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, aspect=%.3g)" g.n g.m
    (weight_aspect_ratio g)

(* Declared last: the field labels shadow [t]'s, and everything above
   accesses [g.off] / [g.ew] etc. with [t] in scope. *)
type view = {
  off : int array;
  adj_eid : int array;
  adj_dst : int array;
  eu : int array;
  ev : int array;
  ew : float array;
}

let view (g : t) : view =
  {
    off = g.off;
    adj_eid = g.adj_eid;
    adj_dst = g.adj_dst;
    eu = g.eu;
    ev = g.ev;
    ew = g.ew;
  }
