(** Multi-network serving over a {!Store}.

    {!run} pushes a batch of (network digest, source, destination)
    requests through one oracle tier on the calling domain:
    - a sequential pre-pass resolves every request's network through
      the store's oracle LRU (loads, evictions, quarantines) in
      request order, so store accounting is deterministic and no load
      runs inside a query's clock. It keeps one oracle per network,
      the first instance resolved; an instance the store evicts and
      reloads later in the batch becomes garbage, so a batch holds at
      most [capacity + networks] oracles whatever its length;
    - one loop then answers the requests in order. Tiers A/B query
      each network's kept oracle (the label tier builds its labels
      before the loop); the source-cache tier queries one
      {!Ln_route.Oracle.clone} of it per network, made for the
      batch.

    Each network's answered distances are summed in request order,
    the order {!Ln_route.Serve.run} adds them in, so a network's
    checksum equals [Serve.run]'s on that network's pairs bit for bit
    — the fleet's replay/correctness gate, pinned by [store-smoke] and
    the QCheck differential. Latencies stream into one histogram and
    into the per-digest [lightnet_serve_latency_us] registry series
    ({!Ln_route.Serve.latency_metric}). *)

type request = { net : string; u : int; v : int }

type net_outcome = {
  digest : string;
  queries : int;
  checksum : float;  (** sum of answered distances on this network *)
}

type outcome = {
  tier : Ln_route.Oracle.tier;
  queries : int;  (** answered *)
  skipped : int;  (** requests whose network failed to resolve *)
  networks : int;  (** distinct networks answered *)
  wall_s : float;
  qps : float;
  latency : Ln_route.Serve.latency;
  checksum : float;  (** global: per-network sums in digest order *)
  nets : net_outcome list;  (** sorted by digest *)
  store : Store.stats;
      (** hit/miss/eviction deltas over this batch; occupancy fields
          are end-of-batch values *)
  cache : Ln_route.Oracle.cache_stats;
      (** source-cache tier: per-network clone counters, summed *)
}

(** [workload store spec ~count] draws [count] requests: networks by a
    Zipf([net_skew], default 1.1; [<= 0.0] is uniform) over the
    store's ready digests in sorted order, then per-network (source,
    destination) pairs from {!Ln_route.Workload.generate} with a
    per-network seed derived from [seed]. Deterministic for a fixed
    (store contents, spec, seed, count). Resolves each requested
    network once — so it warms the store — but {!run} reports LRU
    deltas over its own batch, so no reset is needed in between.
    @raise Invalid_argument if the store has no ready artifacts. *)
val workload :
  ?seed:int ->
  ?net_skew:float ->
  Store.t ->
  Ln_route.Workload.spec ->
  count:int ->
  request array

(** [run store ~tier requests] serves the batch on the calling
    domain. On the cache tier each network is queried through its own
    {!Ln_route.Oracle.clone}, which keeps that oracle's cache capacity,
    starts the batch empty and keeps its cache when the store evicts
    and reloads the network mid-batch. Requests whose network cannot be resolved (unknown or
    quarantined digest) are counted in [skipped], never fatal.
    [domains] is ignored: the fleet has no multi-domain path, and the
    argument stays only so that existing callers that pass it still
    compile. *)
val run :
  ?domains:int ->
  Store.t ->
  tier:Ln_route.Oracle.tier ->
  request array ->
  outcome

(** [certify store ~tier requests outcome] replays each network of
    [outcome.nets], in that order, through {!Ln_route.Serve.certify}
    on its requests ([sample] of them, default all) against [bound]
    (default: the network's promised stretch). [Error] is the store's
    reason when the network no longer resolves. *)
val certify :
  ?sample:int ->
  ?bound:float ->
  Store.t ->
  tier:Ln_route.Oracle.tier ->
  request array ->
  outcome ->
  (string * (Ln_route.Serve.certificate, string) result) list

(** Store-LRU hit fraction of the batch: hits / (hits + misses), 0.0
    when the batch resolved nothing. *)
val store_hit_rate : outcome -> float

(** The replay invariant as text: one ["<digest> <checksum>"] line per
    network (digest order, [%.17g] — exact float round-trip) and a
    final ["total <checksum>"] line. [serve --checksum-out] writes it;
    [store-smoke] [cmp]s it across two processes and across the
    spanner and cache tiers, which answer the same exact distances on
    H. *)
val checksum_lines : outcome -> string

val pp_outcome : Format.formatter -> outcome -> unit
