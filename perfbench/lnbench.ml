(* lnbench: one benchmark for the paper's pipelines and the serving
   fleet. A run executes one workload through the public library API
   for a fixed number of seconds, certifies every output outside the
   timed region, and prints one JSON result line: the end-to-end
   metrics, or with [--trace 1] the per-layer metrics. Spans are kept
   in memory and written as JSON lines when the run ends. NOTES.md
   describes the workloads, the metrics and the layers they map to. *)

open Lightnet

let now = Unix.gettimeofday

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort Float.compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum = List.fold_left ( +. ) 0.0

(* ---------- host speed ---------- *)

(* The 2-core host this was tuned on flips between a fast and a slow
   state every few seconds (a fixed sort of 50,000 ints reads 13 or
   20 ms), and process CPU time slows exactly as wall time does. Raw
   timings therefore do not repeat across runs, whatever statistic a
   run reports. Every end-to-end timing is scaled by the host speed
   measured by a probe just before and just after it: a fixed kernel
   that calls no library code and allocates nothing, so neither a
   library change nor the heap it leaves can move it. A scaled time
   reads as seconds on a host where the probe takes [probe_ref_s]. *)
let probe_ref_s = 0.0075
let probe_input = Array.init 30_000 (fun i -> i * 7919 mod 30_011)
let probe_buf = Array.make (Array.length probe_input) 0

(* Wall time spent in probes, which set-up times leave out. *)
let probe_s = ref 0.0

(* Every scale factor of the run, reported with the host facts. *)
let scales = ref []

(* Best of three sorts of a fixed array. *)
let probe () =
  let start = now () in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    Array.blit probe_input 0 probe_buf 0 (Array.length probe_buf);
    Array.sort Int.compare probe_buf;
    best := Float.min !best (now () -. t0)
  done;
  probe_s := !probe_s +. (now () -. start);
  !best

(* [scaled f] runs [f] between two probes and returns its result with
   the factor that turns a time measured inside [f] into a scaled one. *)
let scaled f =
  let p0 = probe () in
  let r = f () in
  let k = probe_ref_s /. (0.5 *. (p0 +. probe ())) in
  scales := k :: !scales;
  (r, k)

(* ---------- metric names: the contract with BENCHMARK.json ---------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("build_s", "s");
    ("congest_rounds", "count");
    ("lightness", "ratio");
    ("stretch_vs_bound", "ratio");
    ("serve_qps", "1/s");
    ("serve_p99_us", "us");
    ("peak_rss_mb", "MB");
  ]

let phase_metrics name =
  [ (name ^ ".wall_s", "s"); (name ^ ".messages", "count"); (name ^ ".rounds", "count") ]

let per_layer =
  [
    ("engine.runs", "count");
    ("engine.rounds", "count");
    ("engine.messages", "count");
    ("engine.words", "count");
    ("engine.steps", "count");
    ("engine.skip_ratio", "ratio");
    ("engine.wall_s", "s");
    ("engine.ns_per_message", "ns");
    ("engine.us_per_round", "us");
    ("engine.arena_cap", "slots");
    ("central.wall_s", "s");
    ("alloc.minor_words", "words");
    ("alloc.major_words", "words");
    ("alloc.words_per_message", "words");
    ("gc.major_collections", "count");
    ("ledger.native_rounds", "count");
    ("ledger.charged_rounds", "count");
  ]
  @ phase_metrics "dist_mst"
  @ phase_metrics "euler_dist"
  @ [ ("light_spanner.buckets_s", "s") ]
  @ phase_metrics "hub_sssp"
  @ phase_metrics "bellman_ford"
  @ phase_metrics "net"
  @ [
      ("slt.wall_s", "s");
      ("doubling.wall_s", "s");
      ("artifact.make_s", "s");
      ("artifact.save_s", "s");
      ("artifact.bytes", "bytes");
      ("artifact.load_ms", "ms");
      ("oracle.create_ms", "ms");
      ("oracle.sssp_us", "us");
      ("oracle.cache_hit_rate", "ratio");
      ("store.add_s", "s");
      ("store.hit_rate", "ratio");
      ("store.loads", "count");
      ("store.evictions", "count");
      ("store.resolve_s", "s");
      ("fleet.wall_s", "s");
      ("fleet.query_s", "s");
      ("fleet.skipped", "count");
      ("fleet.checksum", "sum");
      ("trace.overhead", "ratio");
    ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let put name v = Hashtbl.replace values name v

(* Layers a workload does not run keep no value and print as 0. *)
let put_median name = function [] -> () | xs -> put name (median xs)

(* ---------- outcome accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let count_ops ~ok ~bad what =
  attempted := !attempted + ok + bad;
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.eprintf "lnbench: FAILED %d: %s\n%!" bad what
  end

let check ok what = count_ops ~ok:(if ok then 1 else 0) ~bad:(if ok then 0 else 1) what

(* ---------- spans ---------- *)

(* A span is the benchmark's own record of one call into a layer's
   public entry point: name, start, end and the enclosing span. Spans
   are recorded only while [tracing] is set; an untraced call measures
   its wall time and nothing else. *)
type span = {
  id : int;
  name : string;
  parent : int;
  start : float;
  stop : float;
  attrs : (string * float) list;
}

type sample = {
  wall : float;
  perf : Engine.perf option;  (** engine counter deltas (traced only) *)
  minor : float;
  major : float;
  majors : int;
}

let tracing = ref false
let spans = ref []
let next_id = ref 0
let open_span = ref (-1)

let measure name f =
  if not !tracing then begin
    let t0 = now () in
    let r = f () in
    (r, { wall = now () -. t0; perf = None; minor = 0.0; major = 0.0; majors = 0 })
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !open_span in
    open_span := id;
    let gc0 = Gc.quick_stat () in
    let p0 = Engine.snapshot_totals () in
    let start = now () in
    let r = Fun.protect ~finally:(fun () -> open_span := parent) f in
    let stop = now () in
    let perf = Engine.totals_since p0 in
    let gc1 = Gc.quick_stat () in
    let s =
      {
        wall = stop -. start;
        perf = Some perf;
        minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
        major = gc1.Gc.major_words -. gc0.Gc.major_words;
        majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
      }
    in
    let attrs =
      [
        ("engine_wall_s", perf.Engine.wall);
        ("rounds", float_of_int perf.Engine.rounds);
        ("messages", float_of_int perf.Engine.messages);
        ("minor_words", s.minor);
        ("major_words", s.major);
      ]
    in
    spans := { id; name; parent; start; stop; attrs } :: !spans;
    (r, s)
  end

let traced f =
  let saved = !tracing in
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := saved) f

let perf_of s = Option.value s.perf ~default:(Engine.create_perf ())

(* ---------- options and sizes ---------- *)

type sizes = {
  rmat_scale : int;
  geo_n : int;
  fleet_nets : int;
  fleet_n : int;
  batch : int;  (** requests per served batch, on every workload *)
  setups : int;
  edge_samples : int;  (** light-spanner edges whose stretch is certified *)
  cert_sample : int;  (** served answers certified against exact distances *)
  sssp_sources : int;
}

let full =
  {
    rmat_scale = 12;
    geo_n = 500;
    fleet_nets = 8;
    fleet_n = 400;
    batch = 1_000;
    setups = 6;
    edge_samples = 256;
    cert_sample = 256;
    sssp_sources = 32;
  }

let smoke =
  {
    rmat_scale = 9;
    geo_n = 150;
    fleet_nets = 3;
    fleet_n = 96;
    batch = 500;
    setups = 2;
    edge_samples = 32;
    cert_sample = 64;
    sssp_sources = 8;
  }

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  sz : sizes;
  out : string;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path


(* ---------- constructions ---------- *)

(* Graphs and the constructions' random choices are a fixed instance,
   seeded from [instance] and not from the workload seed: on RMAT the
   light spanner's rounds and wall time move by up to 3x between
   generator seeds, and SLT hub sampling moves its wall time by half,
   far beyond any regression bound. The workload seed drives the
   request streams and the certification samples. *)
let instance = 7

(* One construction's output as the certifier sees it. [stretch]
   measures (exactly or on a fixed seeded sample) what [bound]
   promises; it runs only on the certified cold build. *)
type construction = {
  label : string;
  edges : int list;
  ledger : Ledger.t;
  bound : float;
  stretch : unit -> float;
  sample : sample;
}

(* Light-spanner stretch is exact where one Dijkstra per vertex is
   cheap, and otherwise on an edge sample seeded from the instance, so
   that the measured stretch depends on the code alone. *)
let light_spanner ?(exact = false) ~opts ~seed g =
  let sp, sample =
    measure "light_spanner" (fun () ->
        Light_spanner.build ~rng:(Random.State.make [| seed; 0x11 |]) g ~k:2 ~epsilon:0.25)
  in
  {
    label = "light_spanner";
    edges = sp.Light_spanner.edges;
    ledger = sp.Light_spanner.ledger;
    bound = sp.Light_spanner.stretch_bound;
    stretch =
      (fun () ->
        if exact then Stats.max_edge_stretch g sp.Light_spanner.edges
        else
          Stats.sampled_edge_stretch
            (Random.State.make [| instance; 0xce |])
            g sp.Light_spanner.edges ~samples:opts.sz.edge_samples);
    sample;
  }

let slt ~seed g =
  let t, sample =
    measure "slt" (fun () ->
        Slt.build ~rng:(Random.State.make [| seed; 0x517 |]) g ~rt:0 ~epsilon:0.5)
  in
  {
    label = "slt";
    edges = List.sort Int.compare t.Slt.edges;
    ledger = t.Slt.ledger;
    bound = t.Slt.stretch_bound;
    stretch = (fun () -> Stats.tree_root_stretch g t.Slt.tree ~root:0);
    sample;
  }

let doubling ~seed g =
  let sp, sample =
    measure "doubling" (fun () ->
        Doubling_spanner.build ~rng:(Random.State.make [| seed; 0xdd |]) g ~epsilon:0.5)
  in
  {
    label = "doubling";
    edges = sp.Doubling_spanner.edges;
    ledger = sp.Doubling_spanner.ledger;
    bound = sp.Doubling_spanner.stretch_bound;
    stretch = (fun () -> Stats.max_edge_stretch g sp.Doubling_spanner.edges);
    sample;
  }

let rounds_of cs =
  List.fold_left (fun acc c -> acc + Ledger.native_total c.ledger + Ledger.charged_total c.ledger) 0 cs

(* Certify a cold build against every promise it makes. Returns
   (lightness sum, worst stretch / bound). *)
let certify g cs =
  List.fold_left
    (fun (light, worst) c ->
      let s = c.stretch () in
      let ratio = s /. c.bound in
      check (Float.is_finite ratio && ratio <= 1.0)
        (Printf.sprintf "%s stretch %.4f exceeds its bound %.4f" c.label s c.bound);
      (light +. Stats.lightness g c.edges, Float.max worst ratio))
    (0.0, 0.0) cs

let same_edges cold warm =
  List.length cold = List.length warm
  && List.for_all2 (fun a b -> a.label = b.label && a.edges = b.edges) cold warm

(* ---------- serving ---------- *)

let save_artifact dir name art =
  let path = Filename.concat dir name in
  let (), s = measure "artifact.save" (fun () -> Artifact.save path art) in
  (path, s.wall, (Unix.stat path).Unix.st_size)

let store_add st path =
  let r, s = measure "store.add" (fun () -> Store.add st path) in
  (match r with
  | Ok (_, `Added) -> ()
  | Ok (_, `Duplicate) -> failwith ("duplicate network in store: " ^ path)
  | Error why -> failwith ("Store.add failed: " ^ why));
  s.wall

let store_capacity = 4
let cache_capacity = 64

let open_store dir = Store.open_dir ~capacity:store_capacity ~cache_capacity dir

(* One closed-loop batch on a cold store LRU: resolution, loads and
   evictions start from the same state every batch. *)
let serve_batch ~domains dir requests =
  let st = open_store dir in
  let o, _ = measure "fleet.run" (fun () -> Fleet.run ~domains st ~tier:Oracle.Cache requests) in
  o

(* Certify a served batch: no request skipped and the checksum equal to
   [reference]. *)
let certify_batch ~reference (o : Fleet.outcome) =
  count_ops ~ok:(o.Fleet.queries - o.Fleet.skipped) ~bad:o.Fleet.skipped "fleet requests skipped";
  if Fleet.checksum_lines o <> reference then
    count_ops ~ok:0 ~bad:o.Fleet.queries "fleet batch checksum differs from the 1-domain replay"

(* Each run serves [batches] batches drawn from the workload seed, in
   turn. Which networks and sources a batch asks for moves its
   throughput and tail by up to a fifth, so a median over several
   batches repeats across seeds far better than one batch replayed. *)
let batches = 8

let draw_batches ~opts st =
  Array.init batches (fun b ->
      Fleet.workload ~seed:((opts.seed * batches) + b) ~net_skew:1.1 st (Workload.Zipf 1.1)
        ~count:opts.sz.batch)

(* Certify each served outcome, paired with its batch index, against
   [reference batch], the batch's checksum on one domain. *)
let certify_served ~reference outcomes =
  List.iter (fun (b, o) -> certify_batch ~reference:(reference b) o) outcomes

(* Certify served answers against exact distances on the first
   requests of every batch, [cert_sample] in all. *)
let certify_answers ~opts dir (requests : Fleet.request array array) =
  let st = open_store dir in
  let by_net = Hashtbl.create 8 in
  Array.iter
    (fun batch ->
      for i = 0 to min (opts.sz.cert_sample / batches) (Array.length batch) - 1 do
        let r = batch.(i) in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_net r.Fleet.net) in
        Hashtbl.replace by_net r.Fleet.net ((r.Fleet.u, r.Fleet.v) :: cur)
      done)
    requests;
  Hashtbl.iter
    (fun net pairs ->
      match Store.oracle st net with
      | Error why -> count_ops ~ok:0 ~bad:(List.length pairs) ("certify: " ^ why)
      | Ok oracle ->
        let pairs = Array.of_list (List.rev pairs) in
        let c =
          Serve.certify oracle ~tier:Oracle.Cache
            ~bound:(Oracle.artifact oracle).Artifact.spanner_stretch pairs
        in
        count_ops ~ok:(c.Serve.sampled - c.Serve.violations) ~bad:c.Serve.violations
          ("served answers beyond the promised stretch on " ^ net))
    by_net

(* The per-layer view of the store and fleet, on the first batch: the
   median of three replays of its store resolution alone, each on a
   cold store, and probes of the artifact read path. [outcomes] pairs
   each of the run's outcomes with its batch index. *)
let serving_layers ~opts dir (requests : Fleet.request array array) outcomes =
  let requests = requests.(0) in
  let outcomes = List.filter_map (fun (b, o) -> if b = 0 then Some o else None) outcomes in
  let replay () =
    Gc.full_major ();
    let st = open_store dir in
    let (), s =
      measure "store.resolve" (fun () ->
          Array.iter (fun r -> ignore (Store.oracle st r.Fleet.net)) requests)
    in
    (st, s.wall)
  in
  let replays = List.init 3 (fun _ -> replay ()) in
  let st = fst (List.hd replays) in
  let resolve = median (List.map snd replays) in
  let files =
    List.filter_map
      (fun e -> if e.Store.status = Store.Ready then Some e.Store.path else None)
      (Store.ls st)
  in
  let loads, creates =
    List.split
      (List.map
         (fun path ->
           let art, l = measure "artifact.load" (fun () -> Artifact.load path) in
           let _, c = measure "oracle.create" (fun () -> Oracle.create ~cache_capacity art) in
           (l.wall *. 1e3, c.wall *. 1e3))
         files)
  in
  put "artifact.load_ms" (median loads);
  put "oracle.create_ms" (median creates);
  let sssp =
    List.init
      (min opts.sz.sssp_sources (Array.length requests))
      (fun i ->
        let r = requests.(i * Array.length requests / opts.sz.sssp_sources) in
        match Store.oracle st r.Fleet.net with
        | Error why -> failwith why
        | Ok oracle ->
          let _, s = measure "oracle.spanner_sssp" (fun () -> Oracle.spanner_sssp oracle r.Fleet.u) in
          s.wall *. 1e6)
  in
  put "oracle.sssp_us" (median sssp);
  let o : Fleet.outcome = List.hd outcomes in
  let cache = o.Fleet.cache in
  let lookups = cache.Oracle.hits + cache.Oracle.misses in
  put "oracle.cache_hit_rate"
    (if lookups = 0 then 0.0 else float_of_int cache.Oracle.hits /. float_of_int lookups);
  put "store.hit_rate" (Fleet.store_hit_rate o);
  put "store.loads" (float_of_int o.Fleet.store.Store.misses);
  put "store.evictions" (float_of_int o.Fleet.store.Store.evictions);
  put "store.resolve_s" resolve;
  let fleet_wall = median (List.map (fun (o : Fleet.outcome) -> o.Fleet.wall_s) outcomes) in
  put "fleet.wall_s" fleet_wall;
  put "fleet.query_s" (fleet_wall -. resolve);
  put "fleet.skipped" (float_of_int o.Fleet.skipped);
  put "fleet.checksum" o.Fleet.checksum

(* Medians over the run's scaled batches. *)
let serve_metrics served =
  put "serve_qps" (median (List.map (fun ((o : Fleet.outcome), k) -> o.Fleet.qps /. k) served));
  put "serve_p99_us"
    (median (List.map (fun ((o : Fleet.outcome), k) -> o.Fleet.latency.Serve.p99_us *. k) served))

(* ---------- per-layer figures of a set of builds ---------- *)

(* [builds] pairs each measured build with its constructions; engine
   and allocation figures are medians over the traced ones. *)
let build_layers builds =
  let traced = List.filter (fun (s, _) -> Option.is_some s.perf) builds in
  let med f = median (List.map f traced) in
  let perf (s, _) = perf_of s in
  let count f = med (fun b -> float_of_int (f (perf b))) in
  put "engine.runs" (count (fun p -> p.Engine.runs));
  put "engine.rounds" (count (fun p -> p.Engine.rounds));
  put "engine.messages" (count (fun p -> p.Engine.messages));
  put "engine.words" (count (fun p -> p.Engine.words));
  put "engine.steps" (count (fun p -> p.Engine.steps));
  put "engine.skip_ratio" (med (fun b -> Engine.skip_ratio (perf b)));
  put "engine.wall_s" (med (fun b -> (perf b).Engine.wall));
  put "engine.ns_per_message"
    (med (fun b ->
         let p = perf b in
         p.Engine.wall *. 1e9 /. float_of_int (max 1 p.Engine.messages)));
  put "engine.us_per_round"
    (med (fun b ->
         let p = perf b in
         p.Engine.wall *. 1e6 /. float_of_int (max 1 p.Engine.rounds)));
  put "engine.arena_cap" (count (fun p -> p.Engine.arena_cap));
  put "central.wall_s" (med (fun (s, _) -> s.wall -. (perf_of s).Engine.wall));
  put "alloc.minor_words" (med (fun (s, _) -> s.minor));
  put "alloc.major_words" (med (fun (s, _) -> s.major));
  put "alloc.words_per_message"
    (med (fun ((s, _) as b) -> s.minor /. float_of_int (max 1 (perf b).Engine.messages)));
  put "gc.major_collections" (med (fun (s, _) -> float_of_int s.majors));
  let ledger f = med (fun (_, cs) -> float_of_int (List.fold_left (fun a c -> a + f c.ledger) 0 cs)) in
  put "ledger.native_rounds" (ledger Ledger.native_total);
  put "ledger.charged_rounds" (ledger Ledger.charged_total);
  let construction label =
    List.filter_map
      (fun (_, cs) ->
        List.find_opt (fun c -> c.label = label) cs |> Option.map (fun c -> c.sample.wall))
      traced
  in
  put_median "slt.wall_s" (construction "slt");
  put_median "doubling.wall_s" (construction "doubling")

let put_phase name (s : sample) =
  let p = perf_of s in
  put (name ^ ".wall_s") s.wall;
  put (name ^ ".messages") (float_of_int p.Engine.messages);
  put (name ^ ".rounds") (float_of_int p.Engine.rounds)

(* The MST + Euler-tour prefix that both the light spanner and the SLT
   start with, run through its public entry points. *)
let mst_euler_phases g =
  let dist, s = measure "dist_mst" (fun () -> Dist_mst.run ~root:0 g) in
  put_phase "dist_mst" s;
  let _, e = measure "euler_dist" (fun () -> Euler_dist.run dist ~rt:0) in
  put_phase "euler_dist" e;
  (dist, s.wall +. e.wall)

let hub_phase ~seed g (dist : Dist_mst.t) =
  let _, s =
    measure "hub_sssp" (fun () ->
        Hub_sssp.run ~rng:(Random.State.make [| seed; 0x517 |]) g ~bfs:dist.Dist_mst.bfs ~src:0)
  in
  put_phase "hub_sssp" s

(* The doubling spanner's per-scale net and bounded multi-source
   exploration, driven scale by scale as Doubling_spanner.build does.
   The pass copies the build's schedule, so its rounds are checked
   against the [built] ledger of the build the workload ran: a schedule
   change in the library shows as a failure, not as stale figures. *)
let net_phases ~seed g ~(built : Ledger.t) =
  let rng = Random.State.make [| seed; 0xdd |] in
  let epsilon = 0.5 in
  let bfs = fst (Bfs.tree g ~root:0) in
  let l_total = Mst_seq.weight g in
  let w_min = Graph.fold_edges g (fun _ e acc -> Float.min acc e.Graph.w) infinity in
  let net = ref [] and bf = ref [] in
  let replica = Ledger.create () in
  let scale = ref w_min in
  while !scale <= l_total *. (1.0 +. epsilon) && Graph.n g > 1 do
    let big = !scale in
    let n, s =
      measure "net" (fun () -> Net.build ~rng g ~bfs ~radius:(epsilon *. big /. 3.0) ~delta:0.5)
    in
    net := s :: !net;
    Ledger.merge replica ~prefix:"net" n.Net.ledger;
    let _, b =
      measure "bellman_ford" (fun () ->
          Bellman_ford.multi_source ~bound:(2.0 *. big) g ~srcs:n.Net.points)
    in
    bf := b :: !bf;
    Ledger.native replica ~label:"bounded-msasp" (perf_of b).Engine.rounds;
    scale := big *. (1.0 +. epsilon)
  done;
  let phases l =
    List.filter_map
      (fun (e : Ledger.entry) ->
        if e.label = "bounded-msasp" || String.starts_with ~prefix:"net/" e.label then
          Some (e.label, e.kind, e.rounds)
        else None)
      (Ledger.entries l)
  in
  check (phases replica = phases built)
    "net / bellman_ford phase pass differs from Doubling_spanner.build's ledger";
  let total name ss =
    let perfs = List.map perf_of ss in
    put (name ^ ".wall_s") (sum (List.map (fun s -> s.wall) ss));
    put (name ^ ".messages") (float_of_int (List.fold_left (fun a p -> a + p.Engine.messages) 0 perfs));
    put (name ^ ".rounds") (float_of_int (List.fold_left (fun a p -> a + p.Engine.rounds) 0 perfs))
  in
  total "net" !net;
  total "bellman_ford" !bf

(* ---------- workloads ---------- *)

let rmat_graph ~opts () =
  let rng = Random.State.make [| instance; 0x4a7 |] in
  Gen.ensure_connected rng (Gen.rmat rng ~scale:opts.sz.rmat_scale ~edge_factor:8 ())

let geo_graph ~n salt =
  let rng = Random.State.make [| instance; 0x6e0; salt |] in
  fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ())

type 'a op = { traced_op : bool; batch : int; r : 'a }

(* The closed loop shared by every workload: run [op] back to back
   until [seconds] have passed, each op starting from a collected heap.
   Ops serve the run's batches in turn. In a traced run the ops
   alternate between traced and untraced and serve each batch twice in
   a row, once each way, so [trace.overhead] is the ratio of their
   median walls over the same batches. *)
let timed_loop ~opts (op : batch:int -> 'a) =
  let min_ops = if opts.trace then 2 else 1 in
  let t_end = now () +. opts.seconds in
  let rec go i acc =
    if i >= min_ops && now () >= t_end then List.rev acc
    else begin
      let traced_op = opts.trace && i mod 2 = 0 in
      Gc.full_major ();
      let saved = !tracing in
      tracing := traced_op;
      let batch = (if opts.trace then i / 2 else i) mod batches in
      let r = Fun.protect ~finally:(fun () -> tracing := saved) (fun () -> op ~batch) in
      go (i + 1) ({ traced_op; batch; r } :: acc)
    end
  in
  go 0 []

let report_overhead ops wall =
  let walls t = List.filter_map (fun o -> if o.traced_op = t then Some (wall o.r) else None) ops in
  let untraced = walls false in
  put "trace.overhead"
    (if untraced = [] then nan else median (walls true) /. median untraced)

(* [setups] set-ups, each timed from a collected heap, less the probes
   it ran, and scaled; [setup_s] is their median. *)
let timed_setups ~opts f =
  let runs =
    List.init opts.sz.setups (fun k ->
        Gc.full_major ();
        let (r, wall), scale =
          scaled (fun () ->
              let p0 = !probe_s and t0 = now () in
              let r = f k in
              (r, now () -. t0 -. (!probe_s -. p0)))
        in
        (wall *. scale, r))
  in
  put "setup_s" (median (List.map fst runs));
  List.map snd runs

(* Build workloads: set up (graph + cold build) [setups] times, certify
   the first cold build, then run warm builds in a closed loop. The
   result line must carry every end-to-end metric, so each op also
   serves the certified output from a one-network store, in a batch of
   the same size as fleet-zipf's. *)
let build_workload ~opts ~gen ~build ~artifact =
  let setups =
    timed_setups ~opts (fun _ ->
        let g = gen () in
        (g, measure "build" (fun () -> build g)))
  in
  let g, (cold, _) = List.hd setups in
  List.iter
    (fun (_, (again, _)) -> check (same_edges cold again) "set-up builds differ")
    (List.tl setups);
  let light, worst = certify g cold in
  put "lightness" light;
  put "stretch_vs_bound" worst;
  put "congest_rounds" (float_of_int (rounds_of cold));
  let dir = Filename.concat opts.out "store" in
  mkdir_p dir;
  let art, make = measure "artifact.make" (fun () -> artifact g cold) in
  let path, save_s, bytes = save_artifact opts.out "net.artifact" art in
  let st = open_store dir in
  let add_s = store_add st path in
  let requests = draw_batches ~opts st in
  let ops =
    timed_loop ~opts (fun ~batch ->
        let (warm, s), k = scaled (fun () -> measure "build" (fun () -> build g)) in
        check (same_edges cold warm) "warm build differs from the cold build";
        (* Only a traced op keeps its output, for the per-layer figures:
           keeping every output would make peak RSS grow with the
           number of ops, so a faster build would read as heavier. *)
        let warm = if !tracing then warm else [] in
        Gc.full_major ();
        (warm, s, k, scaled (fun () -> serve_batch ~domains:1 dir requests.(batch))))
  in
  put "build_s" (median (List.map (fun { r = _, s, k, _; _ } -> s.wall *. k) ops));
  let served = List.map (fun { r = _, _, _, b; _ } -> b) ops in
  let outcomes = List.map (fun { batch; r = _, _, _, (o, _); _ } -> (batch, o)) ops in
  (* Served on one domain already, so each batch must repeat its first
     checksum. *)
  certify_served outcomes ~reference:(fun b -> Fleet.checksum_lines (List.assoc b outcomes));
  certify_answers ~opts dir requests;
  serve_metrics served;
  let traced_builds = List.filter (fun o -> o.traced_op) ops in
  if opts.trace then begin
    put "artifact.make_s" make.wall;
    put "artifact.save_s" save_s;
    put "artifact.bytes" (float_of_int bytes);
    put "store.add_s" add_s;
    traced (fun () -> serving_layers ~opts dir requests outcomes);
    build_layers (List.map (fun { r = warm, s, _, _; _ } -> (s, warm)) traced_builds);
    report_overhead ops (fun (_, s, _, _) -> s.wall)
  end;
  (g, cold, List.map (fun { r = _, s, _, _; _ } -> s.wall) traced_builds)

let spanner_rmat opts =
  let g, _, traced_walls =
    build_workload ~opts
      ~gen:(rmat_graph ~opts)
      ~build:(fun g -> [ light_spanner ~opts ~seed:instance g ])
      ~artifact:(fun g cs ->
        let sp = List.hd cs in
        Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:sp.bound ~spanner_edges:sp.edges
          ~slt_edges:(Mst_seq.kruskal g) ~mst_edges:(Mst_seq.kruskal g)
          ~params:[ ("workload", opts.workload) ]
          ())
  in
  if opts.trace then
    traced (fun () ->
        let _, prefix = mst_euler_phases g in
        put "light_spanner.buckets_s" (median traced_walls -. prefix))

let geo_slt_doubling opts =
  let g, cold, _ =
    build_workload ~opts
      ~gen:(fun () -> geo_graph ~n:opts.sz.geo_n 0)
      ~build:(fun g ->
        let t = slt ~seed:instance g in
        [ t; doubling ~seed:instance g ])
      ~artifact:(fun g cs ->
        let find l = List.find (fun c -> c.label = l) cs in
        let t = find "slt" and d = find "doubling" in
        Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:d.bound ~spanner_edges:d.edges
          ~slt_edges:t.edges ~mst_edges:(Mst_seq.kruskal g)
          ~params:[ ("workload", opts.workload) ]
          ())
  in
  if opts.trace then
    traced (fun () ->
        let dist, _ = mst_euler_phases g in
        hub_phase ~seed:instance g dist;
        net_phases ~seed:instance g ~built:(List.find (fun c -> c.label = "doubling") cold).ledger)

type fleet_net = {
  graph : Graph.t;
  built : construction list;
  build : sample;
  scale : float;  (** of [build] *)
  make_s : float;
  save_s : float;
  bytes : int;
  add_s : float;
}

(* Fleet set-up: build [fleet_nets] geo networks (light spanner + SLT
   + MST), package each as an artifact, add it to a fresh store and
   draw the request batches. *)
let fleet_setup ~opts k =
  let dir = Filename.concat opts.out (Printf.sprintf "fleet-%d" k) in
  mkdir_p dir;
  let st = open_store dir in
  let nets =
    List.init opts.sz.fleet_nets (fun i ->
        let g = geo_graph ~n:opts.sz.fleet_n (i + 1) in
        let (built, build), scale =
          scaled (fun () ->
              measure "build" (fun () ->
                  [ light_spanner ~exact:true ~opts ~seed:(instance + i) g; slt ~seed:(instance + i) g ]))
        in
        let sp = List.hd built and t = List.nth built 1 in
        let art, make =
          measure "artifact.make" (fun () ->
              Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:sp.bound ~spanner_edges:sp.edges
                ~slt_edges:t.edges ~mst_edges:(Mst_seq.kruskal g)
                ~params:[ ("workload", opts.workload); ("net", string_of_int i) ]
                ())
        in
        let path, save_s, bytes = save_artifact dir (Printf.sprintf "net-%d.tmp" i) art in
        let add_s = store_add st path in
        Sys.remove path;
        { graph = g; built; build; scale; make_s = make.wall; save_s; bytes; add_s })
  in
  (dir, nets, draw_batches ~opts st)

let fleet_zipf opts =
  let setups =
    timed_setups ~opts (fun k ->
        if opts.trace then traced (fun () -> fleet_setup ~opts k) else fleet_setup ~opts k)
  in
  let dir, nets, requests = List.hd setups in
  let nets = Array.of_list nets in
  (* The warm builds are those of set-ups 2 and later. *)
  let warm =
    List.concat_map
      (fun (_, again, _) ->
        List.mapi
          (fun i w ->
            check (same_edges nets.(i).built w.built) "warm fleet build differs from the cold build";
            w.build.wall *. w.scale)
          again)
      (List.tl setups)
  in
  put "build_s" (median warm);
  let light, worst =
    List.fold_left
      (fun (l, w) net ->
        let l', w' = certify net.graph net.built in
        (l +. l', Float.max w w'))
      (0.0, 0.0) (Array.to_list nets)
  in
  put "lightness" light;
  put "stretch_vs_bound" worst;
  put "congest_rounds" (float_of_int (Array.fold_left (fun a net -> a + rounds_of net.built) 0 nets));
  let ops =
    timed_loop ~opts (fun ~batch -> scaled (fun () -> serve_batch ~domains:2 dir requests.(batch)))
  in
  let outcomes = List.map (fun o -> (o.batch, fst o.r)) ops in
  let replays = Array.map (fun r -> Fleet.checksum_lines (serve_batch ~domains:1 dir r)) requests in
  certify_served outcomes ~reference:(Array.get replays);
  certify_answers ~opts dir requests;
  serve_metrics (List.map (fun o -> o.r) ops);
  if opts.trace then begin
    let per_net f = median (Array.to_list (Array.map f nets)) in
    put "artifact.make_s" (per_net (fun net -> net.make_s));
    put "artifact.save_s" (per_net (fun net -> net.save_s));
    put "artifact.bytes" (float_of_int (Array.fold_left (fun a net -> a + net.bytes) 0 nets));
    put "store.add_s" (per_net (fun net -> net.add_s));
    traced (fun () -> serving_layers ~opts dir requests outcomes);
    (* Engine and allocation figures per set-up (all networks), from
       the traced set-ups; the phase split on the first network. *)
    let per_setup =
      List.map
        (fun (_, ns, _) ->
          let samples = List.map (fun net -> net.build) ns in
          let perf = Engine.create_perf () in
          List.iter (fun s -> Engine.add_perf ~into:perf (perf_of s)) samples;
          ( {
              wall = sum (List.map (fun s -> s.wall) samples);
              perf = Some perf;
              minor = sum (List.map (fun s -> s.minor) samples);
              major = sum (List.map (fun s -> s.major) samples);
              majors = List.fold_left (fun a s -> a + s.majors) 0 samples;
            },
            List.concat_map (fun net -> net.built) ns ))
        setups
    in
    build_layers per_setup;
    let net0 = nets.(0) in
    traced (fun () ->
        let dist, prefix = mst_euler_phases net0.graph in
        hub_phase ~seed:instance net0.graph dist;
        let ls = List.hd net0.built in
        put "light_spanner.buckets_s" (ls.sample.wall -. prefix));
    report_overhead ops (fun ((o : Fleet.outcome), _) -> o.Fleet.wall_s)
  end

let workloads =
  [ ("spanner-rmat", spanner_rmat); ("geo-slt-doubling", geo_slt_doubling); ("fleet-zipf", fleet_zipf) ]

(* ---------- output ---------- *)

let backend_name () =
  match Engine.current_backend () with
  | Engine.Fast -> "fast"
  | Engine.Reference -> "reference"
  | Engine.Par d -> Printf.sprintf "par%d" d

let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let host_json opts =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %s, \"word_size\": %d, \"peak_rss_mb\": %s, \"workload\": %s, \"seed\": %d, \"backend\": %s, \"smoke\": %b, \"host_scale\": %s}"
    (Bench_env.cores ()) (Obs_json.escape Bench_env.ocaml_version) Bench_env.word_size
    (num (float_of_int (Bench_env.peak_rss_kb ()) /. 1024.0))
    (Obs_json.escape opts.workload) opts.seed (Obs_json.escape (backend_name ()))
    (opts.sz == smoke) (num (median !scales))

let write_spans opts =
  let path = Filename.concat opts.out "spans.jsonl" in
  let oc = open_out path in
  Printf.fprintf oc "{\"host\": %s}\n" (host_json opts);
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\": %d, \"name\": %s, \"parent\": %d, \"start\": %s, \"end\": %s%s}\n" s.id
        (Obs_json.escape s.name) s.parent (num s.start) (num s.stop)
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ", %s: %s" (Obs_json.escape k) (num v)) s.attrs)))
    (List.rev !spans);
  close_out oc

let result_json opts =
  let names = if opts.trace then per_layer else end_to_end in
  let metric (name, unit) =
    let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
    if not (Float.is_finite v) then check false (name ^ " is not finite");
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs_json.escape name)
      (num (if Float.is_finite v then v else 0.0))
      (Obs_json.escape unit)
  in
  let metrics = String.concat ", " (List.map metric names) in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let small = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME spanner-rmat | geo-slt-doubling | fleet-zipf");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed closed loop");
      ("--trace", Arg.Set_int trace, "0|1 1 reports per-layer metrics");
      ("--smoke", Arg.Set small, " tiny sizes (seconds for all workloads)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "lnbench [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("lnbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "lnbench: --trace takes 0 or 1"; exit 2);
  let opts =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      sz = (if !small then smoke else full);
      out = List.fold_left Filename.concat ".bench_build" [ "perfbench"; !workload ];
    }
  in
  (* Everything a run writes lives under [out], cleared first so a
     store never sees the previous run's artifacts. *)
  rm_rf opts.out;
  mkdir_p opts.out;
  Engine.set_backend Engine.Fast;
  run opts;
  if not opts.trace then put "peak_rss_mb" (float_of_int (Bench_env.peak_rss_kb ()) /. 1024.0)
  else write_spans opts;
  Printf.printf "{\"host\": %s}\n" (host_json opts);
  print_endline (result_json opts)
