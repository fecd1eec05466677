(* Route-oracle benchmark: the serving-side numbers for the artifact +
   oracle layer, committed as BENCH_oracle.json.

   Sections:

   1. artifact: build + save + load wall times, file size, and a
      save->load->save byte-identity check on the benchmark graph.
   2. tiers: throughput and latency percentiles per query tier (label,
      spanner-Dijkstra, warm cache) on the same Zipf workload, plus
      the label-vs-Dijkstra and cache-vs-Dijkstra speedups — the
      serving claim is that both beat per-query Dijkstra on H.
   3. cache_sweep: hit rate, eviction count and qps as the LRU
      capacity sweeps a few powers of four, on Zipf and uniform
      workloads (uniform is the adversary: no hot set to keep).
   4. certification: stretch certificates for the cache tier (bound =
      the artifact's promised spanner stretch — must hold) and the
      label tier (measured tree stretch, reported not promised), and
      an exhaustive label-vs-Tree.dist agreement check.
   5. rmat: the artifact + tier pipeline on a Graph500-style input.
   6. store_fleet: the digest-keyed store + fleet — qps, wall, p99
      and checksum of one batch on a Zipf-over-networks workload, and
      a store-LRU hit-rate sweep over capacity x network skew.
   7. slt_epsilon_sweep: measured root stretch and lightness of the
      SLT as epsilon sweeps the (1+O(eps), 1+O(1/eps)) trade-off.

   JSON is printed by Obs_json like the other benches;
   `--smoke` shrinks n so the whole run finishes in seconds and also
   writes serve_digests.txt (see [digest_line]). *)

open Lightnet

let spf = Printf.sprintf

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let outcome_json (o : Serve.outcome) =
  Obs_json.Obj
    [
      ("tier", Obs_json.Str (Oracle.tier_name o.Serve.tier));
      ("queries", Obs_json.Int o.Serve.queries);
      ("wall_s", Obs_json.Num o.Serve.wall_s);
      ("qps", Obs_json.Num o.Serve.qps);
      ("p50_us", Obs_json.Num o.Serve.latency.Serve.p50_us);
      ("p90_us", Obs_json.Num o.Serve.latency.Serve.p90_us);
      ("p99_us", Obs_json.Num o.Serve.latency.Serve.p99_us);
      ("max_us", Obs_json.Num o.Serve.latency.Serve.max_us);
      ("cache_hits", Obs_json.Int o.Serve.cache.Oracle.hits);
      ("cache_misses", Obs_json.Int o.Serve.cache.Oracle.misses);
      ("cache_evictions", Obs_json.Int o.Serve.cache.Oracle.evictions);
      ("checksum", Obs_json.Num o.Serve.checksum);
    ]

(* What a served batch answered, not how fast: tier, query count,
   checksum and cache counters. Under [--smoke] these lines, the
   store-fleet batch's [Fleet.checksum_lines], and each store-sweep
   row's store hits, misses and evictions with its checksum lines go
   to serve_digests.txt, which the oracle-smoke rule diffs against the
   committed bench/serve_digests.expected, so a change that moves any
   served answer or store decision fails runtest. *)
let digest_line section (o : Serve.outcome) =
  spf "%s %s queries=%d checksum=%.17g hits=%d misses=%d evictions=%d\n" section
    (Oracle.tier_name o.Serve.tier) o.Serve.queries o.Serve.checksum
    o.Serve.cache.Oracle.hits o.Serve.cache.Oracle.misses o.Serve.cache.Oracle.evictions

let certificate_json (c : Serve.certificate) =
  Obs_json.Obj
    [
      ("verdict", Obs_json.Str (Monitor.verdict_name c.Serve.report.Monitor.verdict));
      ("detail", Obs_json.Str c.Serve.report.Monitor.detail);
      ("sampled", Obs_json.Int c.Serve.sampled);
      ("exact_sssps", Obs_json.Int c.Serve.sources);
      ("max_stretch", Obs_json.Num c.Serve.max_stretch);
      ("violations", Obs_json.Int c.Serve.violations);
      ("bound", Obs_json.Num c.Serve.bound);
    ]

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 && arg <> "--smoke" then begin
        Printf.eprintf "oracle_bench: unknown argument %s\nusage: %s [--smoke]\n" arg
          Sys.argv.(0);
        exit 2
      end)
    Sys.argv;
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let n = if smoke then 256 else 2000 in
  let seed = 7 in
  let q_fast = if smoke then 4_000 else 40_000 in
  let q_dijkstra = if smoke then 500 else 2_000 in
  Printf.printf "oracle bench: n=%d (%s)\n%!" n (if smoke then "smoke" else "full");
  let digests = Buffer.create 1024 in
  let digest section o = Buffer.add_string digests (digest_line section o) in

  (* Benchmark graph: random-geometric = the doubling workload. *)
  let rng = Random.State.make [| seed; 0x0b |] in
  let g =
    fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ())
  in
  Printf.printf "graph: n=%d m=%d\n%!" (Graph.n g) (Graph.m g);

  (* 1. Artifact build / save / load. *)
  let (sp, _q), build_s =
    time (fun () -> Quick.light_spanner ~seed ~epsilon:0.25 g ~k:2)
  in
  let slt, slt_s =
    time (fun () ->
        Slt.build ~rng:(Random.State.make [| seed; 0x51 |]) g ~rt:0 ~epsilon:0.5)
  in
  let art =
    Artifact.make ~graph:g ~slt_root:0
      ~spanner_stretch:sp.Light_spanner.stretch_bound
      ~spanner_edges:sp.Light_spanner.edges ~slt_edges:slt.Slt.edges
      ~mst_edges:(Mst_seq.kruskal g)
      ~params:[ ("bench", "oracle"); ("n", string_of_int n) ]
      ()
  in
  let path = Filename.temp_file "lightnet_oracle" ".artifact" in
  let (), save_s = time (fun () -> Artifact.save path art) in
  let loaded, load_s = time (fun () -> Artifact.load path) in
  let size_bytes = (Unix.stat path).Unix.st_size in
  let path2 = Filename.temp_file "lightnet_oracle" ".artifact" in
  Artifact.save path2 loaded;
  let byte_identical = read_file path = read_file path2 in
  Sys.remove path;
  Sys.remove path2;
  Printf.printf
    "artifact: build %.2fs+%.2fs save %.4fs load %.4fs (%d bytes, resave identical: %b)\n%!"
    build_s slt_s save_s load_s size_bytes byte_identical;
  if not byte_identical then failwith "artifact re-save not byte-identical";

  (* 2. Throughput per tier on the same Zipf workload shape. *)
  let oracle = Oracle.create ~cache_capacity:64 loaded in
  let zipf = Workload.Zipf 1.1 in
  let pairs_fast = Workload.generate ~seed g zipf ~count:q_fast in
  let pairs_dij = Workload.generate ~seed g zipf ~count:q_dijkstra in
  let o_label = Serve.run oracle ~tier:Oracle.Label pairs_fast in
  let o_spanner = Serve.run oracle ~tier:Oracle.Spanner pairs_dij in
  (* Warm the cache with one pass, then measure the steady state. *)
  ignore (Serve.run oracle ~tier:Oracle.Cache pairs_dij);
  Oracle.reset_cache_stats oracle;
  let o_cache = Serve.run oracle ~tier:Oracle.Cache pairs_dij in
  List.iter
    (fun o ->
      Format.printf "  %a@." Serve.pp_outcome o;
      digest "tiers" o)
    [ o_label; o_spanner; o_cache ];
  let speedup num den = if den > 0.0 then num /. den else 0.0 in
  let label_speedup = speedup o_label.Serve.qps o_spanner.Serve.qps in
  let cache_speedup = speedup o_cache.Serve.qps o_spanner.Serve.qps in
  Printf.printf "  label/dijkstra speedup %.1fx, warm-cache/dijkstra %.1fx\n%!"
    label_speedup cache_speedup;

  (* 3. Cache capacity sweep. *)
  let sweep_workloads = [ ("zipf", zipf); ("uniform", Workload.Uniform) ] in
  let sweep =
    List.map
      (fun (wname, spec) ->
        let pairs = Workload.generate ~seed g spec ~count:q_dijkstra in
        let rows =
          List.map
            (fun cap ->
              let o = Oracle.create ~cache_capacity:cap loaded in
              let out = Serve.run o ~tier:Oracle.Cache pairs in
              digest (spf "cache_sweep/%s/%d" wname cap) out;
              let s = Oracle.cache_stats o in
              let total = s.Oracle.hits + s.Oracle.misses in
              let hit_rate =
                if total = 0 then 0.0
                else float_of_int s.Oracle.hits /. float_of_int total
              in
              Printf.printf "  cache sweep %s cap=%d: hit rate %.3f, %.0f qps\n%!"
                wname cap hit_rate out.Serve.qps;
              Obs_json.Obj
                [
                  ("capacity", Obs_json.Int cap);
                  ("hit_rate", Obs_json.Num hit_rate);
                  ("evictions", Obs_json.Int s.Oracle.evictions);
                  ("qps", Obs_json.Num out.Serve.qps);
                ])
            [ 1; 4; 16; 64; 256 ]
        in
        (wname, Obs_json.Arr rows))
      sweep_workloads
  in

  (* 4. Certification. *)
  let cert_sample = if smoke then 300 else 1000 in
  let cert_cache =
    Serve.certify ~sample:cert_sample oracle ~tier:Oracle.Cache
      ~bound:loaded.Artifact.spanner_stretch pairs_fast
  in
  Format.printf "  cache-tier certificate: %a@." Serve.pp_certificate cert_cache;
  if cert_cache.Serve.report.Monitor.verdict <> Monitor.Correct then
    failwith "cache-tier certification failed";
  (* Label tier: measure the tree stretch first, then certify against a
     bound just above it — documents the measured value and exercises
     the certifier's pass path on tier B. *)
  let probe =
    Serve.certify ~sample:cert_sample oracle ~tier:Oracle.Label ~bound:infinity
      pairs_fast
  in
  let label_bound = probe.Serve.max_stretch *. 1.01 in
  let cert_label =
    Serve.certify ~sample:cert_sample oracle ~tier:Oracle.Label
      ~bound:label_bound pairs_fast
  in
  Format.printf "  label-tier certificate: %a@." Serve.pp_certificate cert_label;
  (* Exhaustive tier-B ground truth: labels equal Tree.dist everywhere
     on a sampled pair set. *)
  let slt_tree = Tree.of_edges g ~root:0 loaded.Artifact.slt_edges in
  let labels = Oracle.labels oracle in
  let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a) in
  let label_agree =
    Array.for_all
      (fun (u, v) -> close (Labels.dist labels u v) (Tree.dist slt_tree u v))
      pairs_fast
  in
  Printf.printf "  label vs Tree.dist agreement on %d pairs: %b\n%!"
    (Array.length pairs_fast) label_agree;
  if not label_agree then failwith "label distances disagree with Tree.dist";

  (* 5. RMAT serving section: the same artifact + tier pipeline on a
     Graph500-style input (heavy-tailed degrees, the shape the scaled
     substrate targets) instead of the doubling geometric graph. The
     RMAT draw is made connected so the MST is a spanning tree usable
     as both the artifact's SLT and (trivially) its spanner; certifier
     runs are skipped — this section is about build + serving
     throughput on the skewed topology, not stretch quality. *)
  let rmat_scale = if smoke then 10 else 17 in
  let rmat_json =
    let rng = Random.State.make [| seed; 0x9a75 |] in
    let (g_r, gen_s) =
      time (fun () ->
          Gen.ensure_connected rng (Gen.rmat rng ~scale:rmat_scale ~edge_factor:8 ()))
    in
    let mst, mst_s = time (fun () -> Mst_seq.kruskal g_r) in
    let art_r, make_s =
      time (fun () ->
          Artifact.make ~graph:g_r ~slt_root:0 ~spanner_stretch:infinity
            ~spanner_edges:mst ~slt_edges:mst ~mst_edges:mst
            ~params:[ ("bench", "oracle-rmat"); ("scale", string_of_int rmat_scale) ]
            ())
    in
    let path = Filename.temp_file "lightnet_oracle_rmat" ".artifact" in
    let (), save_s = time (fun () -> Artifact.save path art_r) in
    let loaded_r, load_s = time (fun () -> Artifact.load path) in
    let size_bytes = (Unix.stat path).Unix.st_size in
    Sys.remove path;
    (* Per-tier query counts scale with per-query cost: label lookups
       are O(1)ish, tree-Dijkstra pays O(n log n) per query at n=2^17,
       and the cache tier amortizes the same Dijkstra across a Zipf
       hot set — skew 1.5, so repeat sources dominate and the measured
       hit rate is the serving claim (an exact SSSP per *distinct*
       source, not per query). *)
    let q_label = if smoke then 1_000 else 4_000 in
    let q_dij_r = if smoke then 50 else 100 in
    let q_cache = if smoke then 500 else 2_000 in
    let cache_skew = 1.5 in
    let oracle_r = Oracle.create ~cache_capacity:256 loaded_r in
    let pairs_label = Workload.generate ~seed g_r (Workload.Zipf 1.1) ~count:q_label in
    let pairs_dij = Workload.generate ~seed g_r (Workload.Zipf 1.1) ~count:q_dij_r in
    let pairs_cache =
      Workload.generate ~seed g_r (Workload.Zipf cache_skew) ~count:q_cache
    in
    let o_label = Serve.run oracle_r ~tier:Oracle.Label pairs_label in
    let o_spanner = Serve.run oracle_r ~tier:Oracle.Spanner pairs_dij in
    let o_cache = Serve.run oracle_r ~tier:Oracle.Cache pairs_cache in
    List.iter (digest "rmat") [ o_label; o_spanner; o_cache ];
    let cs = Oracle.cache_stats oracle_r in
    let cache_total = cs.Oracle.hits + cs.Oracle.misses in
    let cache_hit_rate =
      if cache_total = 0 then 0.0
      else float_of_int cs.Oracle.hits /. float_of_int cache_total
    in
    Printf.printf
      "rmat serving: scale=%d n=%d m=%d gen %.2fs mst %.2fs artifact %.2fs+%.4fs+%.4fs | label %.0f qps, tree-dijkstra %.0f qps, cache %.0f qps (zipf %.1f, hit rate %.3f)\n%!"
      rmat_scale (Graph.n g_r) (Graph.m g_r) gen_s mst_s make_s save_s load_s
      o_label.Serve.qps o_spanner.Serve.qps o_cache.Serve.qps cache_skew
      cache_hit_rate;
    Obs_json.Obj
      [
        ("scale", Obs_json.Int rmat_scale);
        ("edge_factor", Obs_json.Int 8);
        ("n", Obs_json.Int (Graph.n g_r));
        ("m", Obs_json.Int (Graph.m g_r));
        ("gen_s", Obs_json.Num gen_s);
        ("mst_s", Obs_json.Num mst_s);
        ("artifact_make_s", Obs_json.Num make_s);
        ("artifact_save_s", Obs_json.Num save_s);
        ("artifact_load_s", Obs_json.Num load_s);
        ("artifact_size_bytes", Obs_json.Int size_bytes);
        ("label", outcome_json o_label);
        ("spanner_dijkstra", outcome_json o_spanner);
        ("cache", outcome_json o_cache);
        ("cache_workload", Obs_json.Str (Workload.describe (Workload.Zipf cache_skew)));
        ("cache_hit_rate", Obs_json.Num cache_hit_rate);
      ]
  in

  (* 6. Store fleet: a directory of digest-keyed networks served by
     Fleet.run. Throughput is measured on the cache tier, where each
     network is queried through its own clone of the oracle. *)
  let fleet_nets = if smoke then 3 else 6 in
  let fleet_net_n = if smoke then 96 else 400 in
  let q_fleet = if smoke then 2_000 else 20_000 in
  let store_dir = Filename.temp_file "lightnet_oracle_store" "" in
  Sys.remove store_dir;
  let store_fleet_json =
    let st = Store.open_dir ~capacity:4 ~cache_capacity:64 store_dir in
    let build_s = ref 0.0 in
    for i = 0 to fleet_nets - 1 do
      let rng_i = Random.State.make [| seed; 0x57; i |] in
      let g_i =
        fst
          (Gen.random_geometric rng_i ~n:fleet_net_n
             ~radius:(2.0 /. Float.sqrt (float_of_int fleet_net_n))
             ())
      in
      let art_i, dt =
        time (fun () ->
            let sp_i, _ =
              Quick.light_spanner ~seed:(seed + i) ~epsilon:0.25 g_i ~k:2
            in
            let slt_i = Slt.build ~rng:rng_i g_i ~rt:0 ~epsilon:0.5 in
            Artifact.make ~graph:g_i ~slt_root:0
              ~spanner_stretch:sp_i.Light_spanner.stretch_bound
              ~spanner_edges:sp_i.Light_spanner.edges
              ~slt_edges:slt_i.Slt.edges ~mst_edges:(Mst_seq.kruskal g_i)
              ~params:[ ("bench", "store-fleet"); ("net", string_of_int i) ]
              ())
      in
      build_s := !build_s +. dt;
      let tmp = Filename.temp_file "lightnet_oracle_net" ".artifact" in
      Artifact.save tmp art_i;
      (match Store.add st tmp with
      | Ok (_, `Added) -> ()
      | Ok (_, `Duplicate) -> failwith "store fleet: duplicate network seed"
      | Error why -> failwith ("store fleet: add failed: " ^ why));
      Sys.remove tmp
    done;
    Printf.printf "store fleet: %d networks (n=%d each) built in %.2fs\n%!"
      fleet_nets fleet_net_n !build_s;
    let requests =
      Fleet.workload ~seed ~net_skew:1.1 st (Workload.Zipf 1.1) ~count:q_fleet
    in
    let fleet = Fleet.run st ~tier:Oracle.Cache requests in
    Format.printf "  %a@." Fleet.pp_outcome fleet;
    Buffer.add_string digests (Fleet.checksum_lines fleet);
    (* Store-LRU hit-rate sweep: capacity x network skew. Fleet.run
       reports deltas, so the loads done while generating the workload
       don't pollute the measured rate. *)
    let sweep_rows =
      List.concat_map
        (fun cap ->
          List.map
            (fun skew ->
              let st_s = Store.open_dir ~capacity:cap ~cache_capacity:64 store_dir in
              let reqs =
                Fleet.workload ~seed ~net_skew:skew st_s (Workload.Zipf 1.1)
                  ~count:(q_fleet / 2)
              in
              let o = Fleet.run st_s ~tier:Oracle.Cache reqs in
              let hit_rate = Fleet.store_hit_rate o in
              Printf.printf
                "  store sweep cap=%d skew=%.1f: hit rate %.3f (%d evictions), %.0f qps\n%!"
                cap skew hit_rate o.Fleet.store.Store.evictions o.Fleet.qps;
              (* Rows with fewer slots than networks evict and reload
                 networks mid-batch, so their digests pin the store's
                 churn. *)
              Buffer.add_string digests
                (spf "store_sweep/%d/%.1f queries=%d hits=%d misses=%d evictions=%d\n" cap
                   skew o.Fleet.queries o.Fleet.store.Store.hits o.Fleet.store.Store.misses
                   o.Fleet.store.Store.evictions);
              Buffer.add_string digests (Fleet.checksum_lines o);
              Obs_json.Obj
                [
                  ("capacity", Obs_json.Int cap);
                  ("net_skew", Obs_json.Num skew);
                  ("hit_rate", Obs_json.Num hit_rate);
                  ("evictions", Obs_json.Int o.Fleet.store.Store.evictions);
                  ("qps", Obs_json.Num o.Fleet.qps);
                ])
            [ 0.8; 1.2; 1.6 ])
        [ 1; 2; 4; 8 ]
    in
    Obs_json.Obj
      [
        ("networks", Obs_json.Int fleet_nets);
        ("net_n", Obs_json.Int fleet_net_n);
        ("queries", Obs_json.Int q_fleet);
        ("tier", Obs_json.Str "cache");
        ("workload", Obs_json.Str "zipf(s=1.1) pairs, zipf(s=1.1) over networks");
        ("build_s", Obs_json.Num !build_s);
        ("store_hit_rate", Obs_json.Num (Fleet.store_hit_rate fleet));
        ("qps", Obs_json.Num fleet.Fleet.qps);
        ("wall_s", Obs_json.Num fleet.Fleet.wall_s);
        ("p99_us", Obs_json.Num fleet.Fleet.latency.Serve.p99_us);
        ("checksum", Obs_json.Num fleet.Fleet.checksum);
        ("hit_rate_sweep", Obs_json.Arr sweep_rows);
      ]
  in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat store_dir f) with Sys_error _ -> ())
    (Sys.readdir store_dir);
  (try Unix.rmdir store_dir with Unix.Unix_error _ -> ());

  (* 7. SLT epsilon sweep: the (1 + O(eps), 1 + O(1/eps)) trade-off,
     measured. For each epsilon the table reports build time, the
     promised (alpha, beta) bounds, and the measured quantities they
     bound: max/mean root stretch d_T(rt,v)/d_G(rt,v) over every
     reachable vertex (exact Dijkstra ground truth) and lightness
     w(T)/w(MST). *)
  let slt_sweep_json =
    let exact = Paths.dijkstra g 0 in
    let mst_w =
      List.fold_left
        (fun acc id -> acc +. Graph.weight g id)
        0.0 loaded.Artifact.mst_edges
    in
    let rows =
      List.map
        (fun eps ->
          let slt_e, build_s =
            time (fun () ->
                Slt.build ~rng:(Random.State.make [| seed; 0x5e |]) g ~rt:0
                  ~epsilon:eps)
          in
          let t = slt_e.Slt.tree in
          let max_stretch = ref 1.0 in
          let sum_stretch = ref 0.0 in
          let count = ref 0 in
          for v = 1 to Graph.n g - 1 do
            let d = exact.Paths.dist.(v) in
            if Float.is_finite d && d > 0.0 then begin
              let s = Tree.dist_to_root t v /. d in
              if s > !max_stretch then max_stretch := s;
              sum_stretch := !sum_stretch +. s;
              incr count
            end
          done;
          let mean_stretch =
            if !count = 0 then 1.0 else !sum_stretch /. float_of_int !count
          in
          let lightness = if mst_w > 0.0 then Tree.weight t /. mst_w else 0.0 in
          Printf.printf
            "  slt eps=%-6g: build %.2fs, root stretch max %.4f mean %.4f (promised %.2f), lightness %.3f (promised %.2f)\n%!"
            eps build_s !max_stretch mean_stretch slt_e.Slt.stretch_bound
            lightness slt_e.Slt.lightness_bound;
          if !max_stretch > slt_e.Slt.stretch_bound +. 1e-9 then
            failwith (spf "slt sweep: eps=%g broke its stretch promise" eps);
          Obs_json.Obj
            [
              ("epsilon", Obs_json.Num eps);
              ("build_s", Obs_json.Num build_s);
              ("edges", Obs_json.Int (List.length slt_e.Slt.edges));
              ("max_root_stretch", Obs_json.Num !max_stretch);
              ("mean_root_stretch", Obs_json.Num mean_stretch);
              ("stretch_bound", Obs_json.Num slt_e.Slt.stretch_bound);
              ("lightness", Obs_json.Num lightness);
              ("lightness_bound", Obs_json.Num slt_e.Slt.lightness_bound);
            ])
        [ 0.0625; 0.125; 0.25; 0.5; 1.0 ]
    in
    Obs_json.Obj
      [
        ("n", Obs_json.Int (Graph.n g));
        ("model", Obs_json.Str "geo");
        ("mst_weight", Obs_json.Num mst_w);
        ("rows", Obs_json.Arr rows);
      ]
  in

  let json =
    Obs_json.Obj
      [
        ("bench", Obs_json.Str "route-oracle");
        ("mode", Obs_json.Str (if smoke then "smoke" else "full"));
        ( "meta",
          Obs_json.Obj
            [
              ("word_size", Obs_json.Int Bench_env.word_size);
              ("ocaml", Obs_json.Str Bench_env.ocaml_version);
              ("host_cores", Obs_json.Int (Bench_env.cores ()));
              ("peak_rss_kb", Obs_json.Int (Bench_env.peak_rss_kb ()));
            ] );
        ( "graph",
          Obs_json.Obj
            [
              ("model", Obs_json.Str "geo");
              ("n", Obs_json.Int (Graph.n g));
              ("m", Obs_json.Int (Graph.m g));
              ("seed", Obs_json.Int seed);
            ] );
        ( "artifact",
          Obs_json.Obj
            [
              ("spanner_build_s", Obs_json.Num build_s);
              ("slt_build_s", Obs_json.Num slt_s);
              ("save_s", Obs_json.Num save_s);
              ("load_s", Obs_json.Num load_s);
              ("size_bytes", Obs_json.Int size_bytes);
              ("resave_byte_identical", Obs_json.Bool byte_identical);
              ("spanner_edges", Obs_json.Int (List.length loaded.Artifact.spanner_edges));
              ("graph_digest", Obs_json.Str (Artifact.digest_hex loaded));
            ] );
        ( "tiers",
          Obs_json.Obj
            [
              ("workload", Obs_json.Str (Workload.describe zipf));
              ("label", outcome_json o_label);
              ("spanner_dijkstra", outcome_json o_spanner);
              ("cache_warm", outcome_json o_cache);
              ("label_vs_dijkstra_speedup", Obs_json.Num label_speedup);
              ("cache_vs_dijkstra_speedup", Obs_json.Num cache_speedup);
            ] );
        ("cache_sweep", Obs_json.Obj sweep);
        ("rmat", rmat_json);
        ("store_fleet", store_fleet_json);
        ("slt_epsilon_sweep", slt_sweep_json);
        ( "certification",
          Obs_json.Obj
            [
              ("cache_tier", certificate_json cert_cache);
              ("label_tier", certificate_json cert_label);
              ( "label_matches_tree_dist_pairs",
                Obs_json.Int (Array.length pairs_fast) );
              ("label_matches_tree_dist", Obs_json.Bool label_agree);
            ] );
      ]
  in
  Ln_obs.Atomic_file.write "BENCH_oracle.json" (fun oc ->
      output_string oc (Obs_json.to_text json ^ "\n"));
  Printf.printf "wrote BENCH_oracle.json\n%!";
  if smoke then
    Ln_obs.Atomic_file.write "serve_digests.txt" (fun oc -> Buffer.output_buffer oc digests)
