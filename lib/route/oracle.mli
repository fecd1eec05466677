(** Three-tier distance/route query engine over a loaded {!Artifact}.

    - {!Spanner} (tier A): exact Dijkstra on the spanner H per query.
      Answers are within the artifact's promised stretch of the true
      G-distance by the spanner guarantee.
    - {!Label} (tier B): O(1) tree distance on the SLT via {!Labels} —
      no graph traversal at all. Exact on the SLT tree metric, an
      upper bound on the G-distance; stretch for arbitrary pairs is
      measured (certified), not promised.
    - {!Cache} (tier C): tier A amortised through a capacity-bounded
      single-source LRU — one Dijkstra per cache miss, O(1) per hit,
      with hit/miss/eviction counters. Same answers as tier A, bit for
      bit. A miss at capacity refills the evicted entry's array in
      place, so a warm cache allocates no n-sized array.

    Tiers A and C run a distance-only Dijkstra on the oracle's own
    index of H (its CSR with the weights inline, built on the first
    tier-A or tier-C query and shared by clones) with an indexed
    4-ary heap. Its answers equal {!Ln_graph.Paths.dijkstra} on G
    restricted to H bit for bit. The heap, and the distance array a
    tier-A query refills, are module-level scratch that only grows,
    and the lazily built index and labels are not synchronised either:
    query oracles, and their clones, from one domain. Every answer is
    tagged with the tier that produced it (and, for tier C, whether it
    was a cache hit). *)

type tier = Spanner | Label | Cache

val tier_name : tier -> string
val tier_of_string : string -> tier option

type answer = { dist : float; tier : tier; cache_hit : bool }

type cache_stats = { hits : int; misses : int; evictions : int; entries : int }

type t

(** [create artifact] roots and checks the SLT. It neither indexes H
    nor labels the SLT: the first query of a tier that reads them (or
    {!prepare}) does.
    [cache_capacity] bounds the number of cached single-source arrays
    (default 64).
    @raise Invalid_argument if the capacity is < 1 or the artifact's
    SLT has a cycle or does not span its graph. *)
val create : ?cache_capacity:int -> Artifact.t -> t

(** [clone t] shares every immutable structure (artifact, graph, the
    H index and the SLT labels, built or not: what is built through a
    clone serves [t] too) with [t] but starts a fresh, empty
    source-cache LRU of [t]'s capacity with zeroed counters. The LRU is
    an oracle's one mutable piece, so a clone serves tier C
    independently of [t]'s cache: the serving fleet queries one clone
    per network per batch. *)
val clone : t -> t

val artifact : t -> Artifact.t

(** The SLT labels, built on the first call (or first label-tier
    query) and shared by every clone. *)
val labels : t -> Labels.t

(** [prepare t ~tier] builds what [tier] reads, if it is not built
    yet: the SLT labels for {!Label}, the H index for {!Spanner} and
    {!Cache}. {!Ln_route.Serve.run} and the fleet call it before their
    clocks start. *)
val prepare : t -> tier:tier -> unit

(** [query t ~tier u v] answers one distance query on the chosen
    tier. *)
val query : t -> tier:tier -> int -> int -> answer

(** [spanner_sssp t src] is a fresh tier-A distance array from [src]
    (used by the certifier and benchmarks). *)
val spanner_sssp : t -> int -> float array

val cache_stats : t -> cache_stats
val reset_cache_stats : t -> unit
