module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Paths = Ln_graph.Paths
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

type t = {
  artifact : Artifact.t;
  g : Graph.t;
  spanner_ok : int -> bool; (* membership mask of H's edge ids *)
  labels : Labels.t; (* SLT tree labels *)
  lru : lru;
}

let create ?(cache_capacity = 64) (artifact : Artifact.t) =
  if cache_capacity < 1 then invalid_arg "Oracle.create: cache capacity < 1";
  let g = artifact.Artifact.graph in
  let mask = Array.make (max 1 (Graph.m g)) false in
  List.iter (fun e -> mask.(e) <- true) artifact.Artifact.spanner_edges;
  let slt_tree =
    Tree.of_edges g ~root:artifact.Artifact.slt_root artifact.Artifact.slt_edges
  in
  {
    artifact;
    g;
    spanner_ok = (fun e -> mask.(e));
    labels = Labels.build slt_tree;
    lru = empty_lru cache_capacity;
  }

(* Share every immutable tier (graph, H mask, SLT labels) but give the
   clone its own empty source-cache LRU: the one mutable piece. The
   fleet serves each batch's cache tier through one clone per network,
   so a batch starts from an empty cache and keeps it even when the
   store evicts the oracle it was cloned from. *)
let clone t = { t with lru = empty_lru t.lru.capacity }

let artifact t = t.artifact
let labels t = t.labels

let spanner_sssp t src =
  let dist = Array.create_float (Graph.n t.g) in
  Paths.dist_into ~edge_ok:t.spanner_ok t.g src dist;
  dist

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
    let dist =
      if Hashtbl.length lru.table >= lru.capacity then evict_stalest lru
      else Array.create_float (Graph.n t.g)
    in
    Paths.dist_into ~edge_ok:t.spanner_ok t.g src dist;
    Hashtbl.replace lru.table src (dist, ref lru.clock);
    (dist, false)

let query t ~tier u v =
  if Metrics.on () then Metrics.incr (m_query tier);
  match tier with
  | Spanner -> { dist = (spanner_sssp t u).(v); tier; cache_hit = false }
  | Label -> { dist = Labels.dist t.labels u v; tier; cache_hit = false }
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
