module Gen = Ln_graph.Gen
module Oracle = Ln_route.Oracle
module Serve = Ln_route.Serve
module Workload = Ln_route.Workload
module Metrics = Ln_obs.Metrics

type request = { net : string; u : int; v : int }

type net_outcome = { digest : string; queries : int; checksum : float }

type outcome = {
  tier : Oracle.tier;
  queries : int;
  skipped : int;
  networks : int;
  wall_s : float;
  qps : float;
  latency : Serve.latency;
  checksum : float;
  nets : net_outcome list;
  store : Store.stats;
  cache : Oracle.cache_stats;
}

let workload ?(seed = 0) ?(net_skew = 1.1) store spec ~count =
  if count < 0 then invalid_arg "Fleet.workload: negative count";
  let digests = Array.of_list (Store.digests store) in
  let nnets = Array.length digests in
  if nnets = 0 then invalid_arg "Fleet.workload: store has no ready artifacts";
  let rng = Random.State.make [| seed; 0x57a9 |] in
  let draw =
    if net_skew <= 0.0 then fun () -> Random.State.int rng nnets
    else Gen.zipf_sampler rng ~s:net_skew ~n:nnets
  in
  let net_of = Array.init count (fun _ -> draw ()) in
  let wanted = Array.make nnets 0 in
  Array.iter (fun n -> wanted.(n) <- wanted.(n) + 1) net_of;
  (* One pair pool per requested network, drawn with a per-network
     seed so the pool is independent of how the other networks were
     hit. Consumed in request order below. *)
  let pools =
    Array.mapi
      (fun n digest ->
        if wanted.(n) = 0 then [||]
        else
          match Store.oracle store digest with
          | Error _ -> [||]
            (* The network quarantined while generating (corruption is
               never fatal): its requests keep the digest with a
               placeholder pair, and {!run}'s resolution skips them. *)
          | Ok oracle ->
            let g = (Oracle.artifact oracle).Ln_route.Artifact.graph in
            Workload.generate ~seed:(seed + (0x9e3779b9 * (n + 1))) g spec
              ~count:wanted.(n))
      digests
  in
  let cursor = Array.make nnets 0 in
  Array.map
    (fun n ->
      if Array.length pools.(n) = 0 then { net = digests.(n); u = 0; v = 0 }
      else begin
        let u, v = pools.(n).(cursor.(n)) in
        cursor.(n) <- cursor.(n) + 1;
        { net = digests.(n); u; v }
      end)
    net_of

let run ?domains:_ store ~tier requests =
  let count = Array.length requests in
  let store_before = Store.stats store in
  let t0 = Unix.gettimeofday () in
  (* Sequential resolution pre-pass: every store-LRU decision (hit,
     load, eviction, quarantine) happens here, in request order —
     deterministic accounting, and no load runs inside a query's
     clock. It keeps only which requests resolved and each network's
     first resolved instance, so an instance the store evicts and
     reloads mid-batch becomes garbage: the batch holds at most one
     oracle per network beyond the store's own residents. *)
  let resolved = Array.make count false in
  let first = Hashtbl.create 16 in
  let skipped = ref 0 in
  for i = 0 to count - 1 do
    let d = requests.(i).net in
    match Store.oracle store d with
    | Ok oracle ->
      resolved.(i) <- true;
      if not (Hashtbl.mem first d) then Hashtbl.add first d oracle
    | Error _ -> incr skipped
  done;
  (* Networks are numbered in digest order: the order the global
     checksum adds them in. *)
  let digests =
    Hashtbl.fold (fun d _ acc -> d :: acc) first [] |> List.sort String.compare
    |> Array.of_list
  in
  let nnets = Array.length digests in
  let index = Hashtbl.create 16 in
  Array.iteri (fun n d -> Hashtbl.replace index d n) digests;
  let net_of =
    Array.init count (fun i ->
        if resolved.(i) then Hashtbl.find index requests.(i).net else -1)
  in
  (* The oracle each network is queried through, readied before any
     query's clock starts: the tier's index or labels are built here.
     The cache tier queries a clone: the batch starts from an empty
     cache whatever earlier batches did, and keeps that cache when the
     store evicts and reloads the network mid-batch. *)
  let oracles =
    Array.map
      (fun d ->
        let o = Hashtbl.find first d in
        let o = if tier = Oracle.Cache then Oracle.clone o else o in
        Oracle.prepare o ~tier;
        o)
      digests
  in
  (* Registry handles are registered once per batch, so the query loop
     never looks one up. *)
  let mh =
    if Metrics.on () then
      Array.map (fun d -> Some (Serve.latency_metric ~digest:d tier)) digests
    else Array.make nnets None
  in
  let hist = Metrics.Hist.create () in
  let per_net = Array.make nnets 0.0 in
  let per_net_queries = Array.make nnets 0 in
  for i = 0 to count - 1 do
    let n = net_of.(i) in
    if n >= 0 then begin
      let r = requests.(i) in
      let ans, us = Serve.timed_query oracles.(n) ~tier r.u r.v in
      Metrics.Hist.observe hist us;
      (match mh.(n) with Some m -> Metrics.observe m us | None -> ());
      (* Request order within a network: the order Serve.run adds in. *)
      per_net.(n) <- per_net.(n) +. ans.Oracle.dist;
      per_net_queries.(n) <- per_net_queries.(n) + 1
    end
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let cache =
    if tier <> Oracle.Cache then
      { Oracle.hits = 0; misses = 0; evictions = 0; entries = 0 }
    else
      Array.fold_left
        (fun (acc : Oracle.cache_stats) clone ->
          let s = Oracle.cache_stats clone in
          {
            Oracle.hits = acc.Oracle.hits + s.Oracle.hits;
            misses = acc.Oracle.misses + s.Oracle.misses;
            evictions = acc.Oracle.evictions + s.Oracle.evictions;
            entries = acc.Oracle.entries + s.Oracle.entries;
          })
        { Oracle.hits = 0; misses = 0; evictions = 0; entries = 0 }
        oracles
  in
  (* Networks add into the global checksum in digest order. *)
  let checksum = Array.fold_left ( +. ) 0.0 per_net in
  if Metrics.on () then
    Array.iter (fun d -> Metrics.incr (Serve.batches_metric ~digest:d tier)) digests;
  let store_after = Store.stats store in
  let answered = count - !skipped in
  {
    tier;
    queries = answered;
    skipped = !skipped;
    networks = nnets;
    wall_s;
    qps = (if wall_s > 0.0 then float_of_int answered /. wall_s else 0.0);
    latency = Serve.latency_of_hist hist;
    checksum;
    nets =
      List.init nnets (fun n ->
          {
            digest = digests.(n);
            queries = per_net_queries.(n);
            checksum = per_net.(n);
          });
    store =
      {
        store_after with
        Store.hits = store_after.Store.hits - store_before.Store.hits;
        misses = store_after.Store.misses - store_before.Store.misses;
        evictions = store_after.Store.evictions - store_before.Store.evictions;
      };
    cache;
  }

let certify ?sample ?bound store ~tier requests o =
  List.map
    (fun n ->
      let cert oracle =
        let pairs =
          Array.to_list requests
          |> List.filter_map (fun r ->
                 if r.net = n.digest then Some (r.u, r.v) else None)
          |> Array.of_list
        in
        let bound =
          Option.value bound
            ~default:(Oracle.artifact oracle).Ln_route.Artifact.spanner_stretch
        in
        Serve.certify ?sample oracle ~tier ~bound pairs
      in
      (n.digest, Result.map cert (Store.oracle store n.digest)))
    o.nets

let store_hit_rate o =
  let total = o.store.Store.hits + o.store.Store.misses in
  if total = 0 then 0.0 else float_of_int o.store.Store.hits /. float_of_int total

let checksum_lines o =
  let b = Buffer.create 256 in
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "%s %.17g\n" n.digest n.checksum))
    o.nets;
  Buffer.add_string b (Printf.sprintf "total %.17g\n" o.checksum);
  Buffer.contents b

let pp_outcome ppf o =
  Format.fprintf ppf
    "tier %s: %d queries over %d network%s in %.3fs (%.0f qps); latency us \
     p50 %.1f p90 %.1f p99 %.1f max %.1f; store %d/%d hits (%d evictions)"
    (Oracle.tier_name o.tier) o.queries o.networks
    (if o.networks = 1 then "" else "s")
    o.wall_s o.qps o.latency.Serve.p50_us o.latency.Serve.p90_us
    o.latency.Serve.p99_us o.latency.Serve.max_us o.store.Store.hits
    (o.store.Store.hits + o.store.Store.misses)
    o.store.Store.evictions;
  if o.skipped > 0 then Format.fprintf ppf "; %d skipped" o.skipped;
  if o.cache.Oracle.hits + o.cache.Oracle.misses > 0 then
    Format.fprintf ppf "; source cache %d/%d hits" o.cache.Oracle.hits
      (o.cache.Oracle.hits + o.cache.Oracle.misses)
