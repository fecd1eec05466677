module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths
module Monitor = Ln_congest.Monitor
module Metrics = Ln_obs.Metrics

type latency = { p50_us : float; p90_us : float; p99_us : float; max_us : float }

type outcome = {
  tier : Oracle.tier;
  queries : int;
  wall_s : float;
  qps : float;
  latency : latency;
  cache : Oracle.cache_stats; (* deltas over this batch *)
  checksum : float; (* sum of answered distances: a replay invariant *)
}

(* Latency accounting: every batch streams into a constant-memory
   log-bucketed histogram — O(buckets) instead of O(queries) — whose
   quantiles carry relative error <= [Metrics.Hist.error] (1%), clamped
   into the exact observed [min, max]; the max itself is exact. *)
let latency_of_hist h =
  if Metrics.Hist.count h = 0 then
    { p50_us = 0.0; p90_us = 0.0; p99_us = 0.0; max_us = 0.0 }
  else
    {
      p50_us = Metrics.Hist.quantile h 0.50;
      p90_us = Metrics.Hist.quantile h 0.90;
      p99_us = Metrics.Hist.quantile h 0.99;
      max_us = Metrics.Hist.max_value h;
    }

(* Registry handles, labelled per (artifact digest, tier) so that a
   process serving many networks never silently aggregates their
   latency or batch counts into one series. Registration is
   idempotent and keyed on the label set, so requesting the handle
   once per batch is one table lookup, not a new metric. *)
let latency_metric ~digest tier =
  Metrics.histogram ~stable:false
    ~help:"Per-query serve latency in microseconds."
    ~labels:[ ("digest", digest); ("tier", Oracle.tier_name tier) ]
    "lightnet_serve_latency_us"

let batches_metric ~digest tier =
  Metrics.counter ~help:"Serve batches completed."
    ~labels:[ ("digest", digest); ("tier", Oracle.tier_name tier) ]
    "lightnet_serve_batches_total"

(* Nanosecond ticks: [Unix.gettimeofday]'s microsecond ticks read a
   sub-microsecond answer (label tier, cache hit) as 0 or 1 us. *)
let timed_query oracle ~tier u v =
  let q0 = Monotonic_clock.now () in
  let ans = Oracle.query oracle ~tier u v in
  (ans, Int64.to_float (Int64.sub (Monotonic_clock.now ()) q0) /. 1e3)

let run ?(snapshot_every = 0) ?on_snapshot oracle ~tier pairs =
  let count = Array.length pairs in
  let hist = Metrics.Hist.create () in
  let digest = Artifact.digest_hex (Oracle.artifact oracle) in
  let mh = latency_metric ~digest tier in
  let before = Oracle.cache_stats oracle in
  (* The index and labels are built on first use: build them before
     the clock. *)
  Oracle.prepare oracle ~tier;
  let checksum = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to count - 1 do
    let u, v = pairs.(i) in
    let ans, us = timed_query oracle ~tier u v in
    Metrics.Hist.observe hist us;
    if Metrics.on () then Metrics.observe mh us;
    checksum := !checksum +. ans.Oracle.dist;
    (* The live scrape point of the serving loop: surface a registry
       snapshot every [snapshot_every] answered queries. *)
    if snapshot_every > 0 && (i + 1) mod snapshot_every = 0 then
      match on_snapshot with
      | Some f -> f (Metrics.snapshot ())
      | None -> ()
  done;
  if Metrics.on () then Metrics.incr (batches_metric ~digest tier);
  let wall_s = Unix.gettimeofday () -. t0 in
  let after = Oracle.cache_stats oracle in
  {
    tier;
    queries = count;
    wall_s;
    qps = (if wall_s > 0.0 then float_of_int count /. wall_s else 0.0);
    latency = latency_of_hist hist;
    cache =
      {
        Oracle.hits = after.Oracle.hits - before.Oracle.hits;
        misses = after.Oracle.misses - before.Oracle.misses;
        evictions = after.Oracle.evictions - before.Oracle.evictions;
        entries = after.Oracle.entries;
      };
    checksum = !checksum;
  }

let hit_rate o =
  let total = o.cache.Oracle.hits + o.cache.Oracle.misses in
  if total = 0 then 0.0
  else float_of_int o.cache.Oracle.hits /. float_of_int total

let pp_outcome ppf o =
  Format.fprintf ppf
    "tier %s: %d queries in %.3fs (%.0f qps); latency us p50 %.1f p90 %.1f p99 %.1f max %.1f"
    (Oracle.tier_name o.tier) o.queries o.wall_s o.qps o.latency.p50_us
    o.latency.p90_us o.latency.p99_us o.latency.max_us;
  if o.cache.Oracle.hits + o.cache.Oracle.misses > 0 then
    Format.fprintf ppf "; cache %d/%d hits (%d evictions)"
      o.cache.Oracle.hits
      (o.cache.Oracle.hits + o.cache.Oracle.misses)
      o.cache.Oracle.evictions

(* ------------------------------------------------------------------ *)
(* Stretch certification. *)

type certificate = {
  report : Monitor.report;
  sampled : int;
  sources : int; (* distinct sources -> exact Dijkstras on G replayed *)
  max_stretch : float;
  violations : int;
  bound : float;
}

(* Replay a sample of answers against exact distances on the source
   graph G. Grouping the sample by source amortises the ground truth:
   one full Dijkstra on G per distinct source. An answer below the
   true distance is impossible for any tier (all tiers answer with
   path lengths in G), so it is reported as [Wrong] evidence of a
   corrupt artifact, as is any answer above [bound] times the truth. *)
let certify ?sample oracle ~tier ~bound pairs =
  let pairs =
    match sample with
    | Some k when k < Array.length pairs -> Array.sub pairs 0 k
    | _ -> Array.copy pairs
  in
  Array.sort compare pairs;
  let g = (Oracle.artifact oracle).Artifact.graph in
  let eps = 1e-9 in
  let max_stretch = ref 1.0 in
  let violations = ref 0 in
  let first_bad = ref None in
  let sources = ref 0 in
  let exact = ref [||] in
  let current_src = ref (-1) in
  Array.iter
    (fun (u, v) ->
      if u <> !current_src then begin
        current_src := u;
        incr sources;
        exact := (Paths.dijkstra g u).Paths.dist
      end;
      let truth = !exact.(v) in
      let got = (Oracle.query oracle ~tier u v).Oracle.dist in
      let stretch = if truth > 0.0 then got /. truth else 1.0 in
      if stretch > !max_stretch then max_stretch := stretch;
      let bad =
        got < truth *. (1.0 -. eps) || got > truth *. bound *. (1.0 +. eps)
      in
      if bad then begin
        incr violations;
        if !first_bad = None then first_bad := Some (u, v, truth, got)
      end)
    pairs;
  let report =
    match !first_bad with
    | None ->
      {
        Monitor.verdict = Monitor.Correct;
        detail =
          Printf.sprintf
            "%d sampled answers within stretch %.2f (max observed %.3f)"
            (Array.length pairs) bound !max_stretch;
      }
    | Some (u, v, truth, got) ->
      {
        Monitor.verdict = Monitor.Wrong;
        detail =
          Printf.sprintf
            "%d of %d answers violate stretch %.2f; e.g. (%d,%d): answered %.6g, exact %.6g"
            !violations (Array.length pairs) bound u v got truth;
      }
  in
  {
    report;
    sampled = Array.length pairs;
    sources = !sources;
    max_stretch = !max_stretch;
    violations = !violations;
    bound;
  }

let pp_certificate ppf c =
  Format.fprintf ppf "%a [%d pairs, %d exact SSSPs, max stretch %.3f <= %.2f]"
    Monitor.pp c.report c.sampled c.sources c.max_stretch c.bound
