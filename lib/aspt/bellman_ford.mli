(** Distributed Bellman–Ford in the CONGEST model.

    [sssp] is the exact single-source baseline: every improvement is
    re-flooded; at quiescence every vertex holds its exact distance and
    a consistent parent pointer (rounds ≈ the graph's hop radius times
    the improvement-chain length — the quantity the paper's Õ(√n + D)
    algorithms beat, which is why it is the baseline).

    [multi_source] runs Bellman–Ford from a set of sources with a
    distance bound: every vertex ends with a table holding, for every
    source within distance [bound] of it, the *exact* distance and the
    first edge of a realizing path. Tables are pruned at [bound], so —
    exactly as in Section 7's packing argument — the per-vertex work is
    proportional to the number of sources whose balls reach it; each
    vertex forwards one (source, distance) update per round per edge.
    This is the stand-in for the [EN16] hopset-based Δ-bounded
    multi-source exploration (path-reporting included: parent edges).
    [hop_limited] is the same program capped by hop count instead of
    distance: hub SSSP's local phase.

    All three accept [edge_ok] to restrict to a subgraph (e.g. the
    graph H of Section 4). *)

type result = { dist : float array; parent_edge : int array }

(** Exact single-source shortest paths.
    @param init optional initial upper-bound estimates (must be
    realizable path lengths, [infinity] elsewhere); used by the hub
    scheme's repair phase. Default: 0 at [src], [infinity] elsewhere. *)
val sssp :
  ?edge_ok:(int -> bool) ->
  ?init:float array ->
  Ln_graph.Graph.t ->
  src:int ->
  result * Ln_congest.Engine.stats

(** A vertex's table: one entry per source within reach, in the order
    the vertex first heard of each source. An entry holds the source,
    its distance and the parent edge toward it (-1 at the source
    itself). The entries live in flat columns sized by what the vertex
    heard, never by the number of sources. *)
type table

type tables = table array

(** Exact [bound]-limited multi-source shortest paths. Messages are
    (source, distance): 3 words. *)
val multi_source :
  ?edge_ok:(int -> bool) ->
  ?bound:float ->
  Ln_graph.Graph.t ->
  srcs:int list ->
  tables * Ln_congest.Engine.stats

(** [hop_limited ~hop_cap g ~srcs] is the same program without a
    distance bound, forwarding an entry only while its current
    distance came over fewer than [hop_cap] edges. A vertex ends with
    a realizable distance (and parent edge) for every source whose
    entry reached it, not necessarily the shortest: {!Hub_sssp}, whose
    local phase this is, tightens the estimates afterwards. Messages
    carry the hop count: 4 words. *)
val hop_limited :
  ?edge_ok:(int -> bool) ->
  hop_cap:int ->
  Ln_graph.Graph.t ->
  srcs:int list ->
  tables * Ln_congest.Engine.stats

(** Number of entries. *)
val length : table -> int

(** [find t s] is the position of source [s]'s entry, or -1. Positions
    run from 0 to [length t - 1] in first-insertion order. *)
val find : table -> int -> int

(** The distance and parent edge of the entry at a position.
    @raise Invalid_argument if the position is out of range. *)
val dist : table -> int -> float

val parent : table -> int -> int

(** [to_hashtbl t] maps each source to (distance, parent edge), built
    by inserting the entries into [Hashtbl.create 8] in first-insertion
    order. That is the order in which a table kept as a [Hashtbl] with
    [replace] would have gained its keys, so [Hashtbl.fold] over the
    result visits the sources in the same order. *)
val to_hashtbl : table -> (int, float * int) Hashtbl.t

(** [path_to_source g tables v ~src] walks parent edges from [v] to
    [src]; [None] if [src] is not in [v]'s table. The returned list is
    the vertex path [v; ...; src]. *)
val path_to_source :
  Ln_graph.Graph.t -> tables -> int -> src:int -> int list option
