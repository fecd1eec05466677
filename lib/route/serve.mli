(** Batch serving driver and stretch certifier.

    {!run} pushes a workload through one oracle tier and reports
    throughput, latency percentiles, the cache counter deltas and a
    checksum of the answered distances (a cheap replay invariant:
    same artifact + workload + tier must reproduce it bit-for-bit).
    What the tier reads (the spanner index or the SLT labels) is built
    before the clock starts ({!Oracle.prepare}).

    Latency percentiles are streamed through a constant-memory
    log-bucketed histogram ({!Ln_obs.Metrics.Hist}) — O(buckets), not
    O(queries), scratch — so each is an estimate within 1% of the
    exact rank, clamped into the observed range; the max is exact.
    Each query latency is also observed into the process-wide
    [lightnet_serve_latency_us] registry histogram — labelled with the
    artifact digest and tier, so multi-network processes keep one
    series per network — when metrics are enabled, and [run]'s
    [snapshot_every]/[on_snapshot] hook surfaces periodic registry
    snapshots from inside the loop — the serving tier's live scrape
    point.

    {!certify} replays a sample of answers against exact Dijkstra
    distances on the source graph G and renders a verdict in
    {!Ln_congest.Monitor}'s vocabulary: {!Ln_congest.Monitor.Correct}
    when every sampled answer is within the configured stretch bound,
    {!Ln_congest.Monitor.Wrong} (with the first counter-example)
    otherwise. Ground truth is amortised by grouping the sample per
    source — one exact SSSP per distinct source. *)

type latency = { p50_us : float; p90_us : float; p99_us : float; max_us : float }

type outcome = {
  tier : Oracle.tier;
  queries : int;
  wall_s : float;
  qps : float;
  latency : latency;
  cache : Oracle.cache_stats;  (** counter deltas over this batch *)
  checksum : float;  (** sum of answered distances *)
}

(** [timed_query oracle ~tier u v] is the answer and its latency in
    microseconds, on the monotonic clock's nanosecond ticks. {!run}
    and the fleet time every query with it. *)
val timed_query :
  Oracle.t -> tier:Oracle.tier -> int -> int -> Oracle.answer * float

val run :
  ?snapshot_every:int ->
  ?on_snapshot:(Ln_obs.Metrics.snapshot -> unit) ->
  Oracle.t ->
  tier:Oracle.tier ->
  (int * int) array ->
  outcome
(** [snapshot_every] (default 0 = never) triggers [on_snapshot] with a
    fresh {!Ln_obs.Metrics.snapshot} after every that-many queries. *)

val latency_metric : digest:string -> Oracle.tier -> Ln_obs.Metrics.histogram
(** The per-(artifact digest, tier) [lightnet_serve_latency_us]
    registry handle. Registration is idempotent; exposed so external
    drivers (the fleet) observe into the same series {!run} uses. *)

val batches_metric : digest:string -> Oracle.tier -> Ln_obs.Metrics.counter
(** The per-(artifact digest, tier) [lightnet_serve_batches_total]
    registry handle. *)

val latency_of_hist : Ln_obs.Metrics.Hist.t -> latency
(** Streaming percentiles of a histogram: each within the histogram's
    relative-error bound of the exact value; [max_us] is exact. *)

(** Cache hit fraction of a batch: hits / (hits + misses), 0.0 when
    the tier touched no cache counters (never [nan]). *)
val hit_rate : outcome -> float

val pp_outcome : Format.formatter -> outcome -> unit

type certificate = {
  report : Ln_congest.Monitor.report;
  sampled : int;
  sources : int;  (** distinct sources (exact SSSPs replayed) *)
  max_stretch : float;
  violations : int;
  bound : float;
}

(** [certify oracle ~tier ~bound pairs] replays [pairs] (the first
    [sample] of them if given) and certifies every answer against
    [bound] times the exact G-distance. *)
val certify :
  ?sample:int ->
  Oracle.t ->
  tier:Oracle.tier ->
  bound:float ->
  (int * int) array ->
  certificate

val pp_certificate : Format.formatter -> certificate -> unit
