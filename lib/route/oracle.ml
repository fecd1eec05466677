module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Metrics = Ln_obs.Metrics

type tier = Spanner | Label | Cache

let tier_name = function
  | Spanner -> "spanner"
  | Label -> "label"
  | Cache -> "cache"

let tier_of_string = function
  | "spanner" | "a" | "A" -> Some Spanner
  | "label" | "b" | "B" -> Some Label
  | "cache" | "c" | "C" -> Some Cache
  | _ -> None

type answer = { dist : float; tier : tier; cache_hit : bool }

type cache_stats = { hits : int; misses : int; evictions : int; entries : int }

(* Always-on serving counters: per-tier query totals plus the shared
   source-cache accounting (summed across every oracle in the
   process; the per-oracle view stays in [cache_stats]). Updates are
   one ref read when no exporter is attached. *)
let m_query =
  let q tier =
    Metrics.counter ~help:"Oracle queries answered."
      ~labels:[ ("tier", tier_name tier) ]
      "lightnet_oracle_queries_total"
  in
  let spanner = q Spanner and label = q Label and cache = q Cache in
  function Spanner -> spanner | Label -> label | Cache -> cache

let m_hits =
  Metrics.counter ~help:"Source-cache hits." "lightnet_oracle_cache_hits_total"

let m_misses =
  Metrics.counter ~help:"Source-cache misses (exact SSSP rebuilds)."
    "lightnet_oracle_cache_misses_total"

let m_evictions =
  Metrics.counter ~help:"Source-cache LRU evictions."
    "lightnet_oracle_cache_evictions_total"

(* Single-source LRU: full Dijkstra-on-H distance arrays keyed by
   source vertex. Capacities are small (each entry is O(n) floats), so
   eviction scans for the stalest stamp instead of maintaining a
   linked list. A miss at capacity refills the evicted entry's array in
   place; no cached array ever leaves the oracle. *)
type lru = {
  capacity : int;
  table : (int, float array * int ref) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let empty_lru capacity =
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* ------------------------------------------------------------------ *)
(* The spanner index and the Dijkstra that serves tiers A and C. *)

(* H's adjacency as CSR with the weights inline: vertex [v]'s edges in
   H lead to [dst.(i)] at weight [w.(i)] for [i] in
   [off.(v) .. off.(v+1)-1]. It is counting-sorted from the artifact's
   edge-id list in list order, which need not be sorted or free of
   repeats ([Artifact.load] keeps file order); a repeated id only adds
   a parallel entry of the same weight, which lowers no distance. *)
type index = { off : int array; dst : int array; w : float array }

let build_index g ids =
  let n = Graph.n g in
  let { Graph.eu; ev; ew; _ } = Graph.view g in
  let off = Array.make (n + 1) 0 in
  List.iter
    (fun e ->
      off.(eu.(e) + 1) <- off.(eu.(e) + 1) + 1;
      off.(ev.(e) + 1) <- off.(ev.(e) + 1) + 1)
    ids;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let dst = Array.make off.(n) 0 and w = Array.create_float off.(n) in
  let next = Array.sub off 0 n in
  List.iter
    (fun e ->
      let u = eu.(e) and v = ev.(e) in
      dst.(next.(u)) <- v;
      w.(next.(u)) <- ew.(e);
      next.(u) <- next.(u) + 1;
      dst.(next.(v)) <- u;
      w.(next.(v)) <- ew.(e);
      next.(v) <- next.(v) + 1)
    ids;
  { off; dst; w }

(* An indexed 4-ary min-heap of vertices, keyed by the distance array
   being filled: [heap.(0 .. len-1)] holds the queued vertices and
   [pos.(v)] is [v]'s slot, or -1 when [v] is not queued. Lowering
   [dist.(v)] sifts [v] up from its slot, so the heap holds no stale
   entry and needs no settled marks. Every pop sets its vertex's slot
   back to -1, so a finished run leaves [pos] all -1 for the next; the
   run calls nothing that can raise once it has touched the heap.
   Beside the heap sits [dist], the distance array a tier-A query
   refills, so a query allocates no n-sized array. The scratch only
   grows and is not synchronised: it belongs to the one domain that
   serves tiers A and C. *)
type scratch = {
  mutable heap : int array;
  mutable pos : int array;
  mutable dist : float array;
}

let scratch = { heap = [||]; pos = [||]; dist = [||] }

(* Sift [v] up from the hole at slot [i]. Keys are read from [dist]
   here, so no float crosses a call. *)
let sift_up heap pos (dist : float array) i v =
  let d = dist.(v) and i = ref i in
  while !i > 0 && d < dist.(heap.((!i - 1) / 4)) do
    let p = (!i - 1) / 4 in
    let x = heap.(p) in
    heap.(!i) <- x;
    pos.(x) <- !i;
    i := p
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Sift [v] down from the hole at the root of a heap of [len] slots. *)
let sift_down heap pos (dist : float array) len v =
  let d = dist.(v) and i = ref 0 and sinking = ref true in
  while !sinking do
    let c = (4 * !i) + 1 in
    if c >= len then sinking := false
    else begin
      let last = if c + 3 < len then c + 3 else len - 1 in
      let m = ref c in
      for j = c + 1 to last do
        if dist.(heap.(j)) < dist.(heap.(!m)) then m := j
      done;
      let x = heap.(!m) in
      if dist.(x) < d then begin
        heap.(!i) <- x;
        pos.(x) <- !i;
        i := !m
      end
      else sinking := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Distances from [src] in H, written into [dist] (length n). With
   strict-[<] relaxation over positive weights the result does not
   depend on the pop order: a vertex settled after [v] has a distance
   of at least [dist.(v)], and fl(d + w) >= d, so it cannot lower
   [dist.(v)]. Every distance is therefore the least left-to-right
   float sum over H's paths, the one {!Ln_graph.Paths.dijkstra}
   computes on G restricted to H, bit for bit. *)
let sssp_into ix src dist =
  let n = Array.length ix.off - 1 in
  if Array.length scratch.pos < n then begin
    scratch.heap <- Array.make n 0;
    scratch.pos <- Array.make n (-1)
  end;
  let heap = scratch.heap and pos = scratch.pos in
  let off = ix.off and dst = ix.dst and w = ix.w in
  Array.fill dist 0 n infinity;
  dist.(src) <- 0.0;
  heap.(0) <- src;
  pos.(src) <- 0;
  let len = ref 1 in
  while !len > 0 do
    let v = heap.(0) in
    pos.(v) <- -1;
    decr len;
    if !len > 0 then sift_down heap pos dist !len heap.(!len);
    let d = dist.(v) in
    for i = off.(v) to off.(v + 1) - 1 do
      let u = dst.(i) in
      let nd = d +. w.(i) in
      if nd < dist.(u) then begin
        dist.(u) <- nd;
        let p = pos.(u) in
        if p >= 0 then sift_up heap pos dist p u
        else begin
          sift_up heap pos dist !len u;
          incr len
        end
      end
    done
  done

(* ------------------------------------------------------------------ *)

type t = {
  artifact : Artifact.t;
  index : index Lazy.t; (* H's CSR, built on the first tier-A or C query *)
  labels : Labels.t Lazy.t; (* SLT tree labels, built on first use *)
  lru : lru;
}

(* The SLT is rooted and checked here, with the errors [Tree.of_edges]
   and [Labels.check] raise, so an artifact no oracle can serve is
   rejected at load. Indexing H and labelling the SLT wait for the
   first query of a tier that reads them. *)
let create ?(cache_capacity = 64) (artifact : Artifact.t) =
  if cache_capacity < 1 then invalid_arg "Oracle.create: cache capacity < 1";
  let g = artifact.Artifact.graph in
  let slt_tree =
    Tree.of_edges g ~root:artifact.Artifact.slt_root artifact.Artifact.slt_edges
  in
  Labels.check slt_tree;
  {
    artifact;
    index = lazy (build_index g artifact.Artifact.spanner_edges);
    labels = lazy (Labels.build slt_tree);
    lru = empty_lru cache_capacity;
  }

(* Share every immutable tier (the artifact, the lazy H index and SLT
   labels) but give the clone its own empty source-cache LRU: the one
   mutable piece. The fleet serves each batch's cache tier through one
   clone per network, so a batch starts from an empty cache and keeps
   it even when the store evicts the oracle it was cloned from. *)
let clone t = { t with lru = empty_lru t.lru.capacity }

let artifact t = t.artifact
let labels t = Lazy.force t.labels

let prepare t ~tier =
  match tier with
  | Label -> ignore (Lazy.force t.labels)
  | Spanner | Cache -> ignore (Lazy.force t.index)

let spanner_sssp t src =
  let ix = Lazy.force t.index in
  let dist = Array.create_float (Array.length ix.off - 1) in
  sssp_into ix src dist;
  dist

(* Tier A: one Dijkstra from [u] into the scratch distances. *)
let spanner_dist t u v =
  let ix = Lazy.force t.index in
  let n = Array.length ix.off - 1 in
  if Array.length scratch.dist < n then scratch.dist <- Array.create_float n;
  sssp_into ix u scratch.dist;
  scratch.dist.(v)

(* Drop the stalest entry and hand back its array for reuse. *)
let evict_stalest lru =
  let victim = ref (-1) and stalest = ref max_int in
  Hashtbl.iter
    (fun src (_, stamp) ->
      if !stamp < !stalest then begin
        stalest := !stamp;
        victim := src
      end)
    lru.table;
  let dist, _ = Hashtbl.find lru.table !victim in
  Hashtbl.remove lru.table !victim;
  lru.evictions <- lru.evictions + 1;
  if Metrics.on () then Metrics.incr m_evictions;
  dist

let cached_sssp t src =
  let lru = t.lru in
  lru.clock <- lru.clock + 1;
  match Hashtbl.find_opt lru.table src with
  | Some (dist, stamp) ->
    lru.hits <- lru.hits + 1;
    if Metrics.on () then Metrics.incr m_hits;
    stamp := lru.clock;
    (dist, true)
  | None ->
    lru.misses <- lru.misses + 1;
    if Metrics.on () then Metrics.incr m_misses;
    let ix = Lazy.force t.index in
    let dist =
      if Hashtbl.length lru.table >= lru.capacity then evict_stalest lru
      else Array.create_float (Array.length ix.off - 1)
    in
    sssp_into ix src dist;
    Hashtbl.replace lru.table src (dist, ref lru.clock);
    (dist, false)

let query t ~tier u v =
  if Metrics.on () then Metrics.incr (m_query tier);
  match tier with
  | Spanner -> { dist = spanner_dist t u v; tier; cache_hit = false }
  | Label -> { dist = Labels.dist (labels t) u v; tier; cache_hit = false }
  | Cache ->
    let dist, cache_hit = cached_sssp t u in
    { dist = dist.(v); tier; cache_hit }

let cache_stats t =
  {
    hits = t.lru.hits;
    misses = t.lru.misses;
    evictions = t.lru.evictions;
    entries = Hashtbl.length t.lru.table;
  }

let reset_cache_stats t =
  t.lru.hits <- 0;
  t.lru.misses <- 0;
  t.lru.evictions <- 0
