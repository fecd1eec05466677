(* Tests for the route-oracle serving layer: tour-interval labels
   against naive root-walk answers, artifact round-trips, the
   three-tier oracle, workload determinism and the stretch
   certifier. *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Paths = Ln_graph.Paths
module Gen = Ln_graph.Gen
module Mst_seq = Ln_graph.Mst_seq
module Monitor = Ln_congest.Monitor
module Rmq = Ln_route.Rmq
module Labels = Ln_route.Labels
module Artifact = Ln_route.Artifact
module Oracle = Ln_route.Oracle
module Workload = Ln_route.Workload
module Serve = Ln_route.Serve

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a)

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x2073 |]) t

(* A random rooted spanning tree presented as a graph: parent of
   vertex i is uniform in [0, i), weights uniform. *)
let random_tree rng n =
  let edges =
    List.init (n - 1) (fun i ->
        let v = i + 1 in
        {
          Graph.u = Random.State.int rng v;
          v;
          w = 0.5 +. Random.State.float rng 9.5;
        })
  in
  let g = Graph.create n edges in
  let root = Random.State.int rng n in
  (g, Tree.of_edges g ~root (List.init (Graph.m g) Fun.id))

(* Naive root-walk answers the labels must reproduce. *)
let naive_is_ancestor tree a v =
  let rec walk v = v = a || (match Tree.parent tree v with
    | Some (p, _) -> walk p
    | None -> false)
  in
  walk v

let naive_lca tree u v =
  let rec ancestors v acc =
    let acc = v :: acc in
    match Tree.parent tree v with Some (p, _) -> ancestors p acc | None -> acc
  in
  let au = ancestors u [] in
  (* Deepest vertex on v's root path that is also on u's. *)
  let rec walk v =
    if List.mem v au then v
    else match Tree.parent tree v with
      | Some (p, _) -> walk p
      | None -> assert false
  in
  walk v

(* ------------------------------------------------------------------ *)
(* Rmq. *)

let test_rmq_exhaustive () =
  let rng = Random.State.make [| 0x42; 1 |] in
  List.iter
    (fun n ->
      let values = Array.init n (fun _ -> Random.State.int rng 10) in
      let t = Rmq.build values in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let a = Rmq.argmin t i j in
          let naive = ref i in
          for k = i to j do
            if values.(k) < values.(!naive) then naive := k
          done;
          if values.(a) <> values.(!naive) then
            Alcotest.failf "rmq value mismatch on [%d,%d] (n=%d)" i j n;
          (* leftmost tie *)
          for k = i to a - 1 do
            if values.(k) = values.(a) then
              Alcotest.failf "rmq not leftmost on [%d,%d] (n=%d)" i j n
          done
        done
      done)
    [ 1; 2; 3; 7; 16; 33 ]

(* ------------------------------------------------------------------ *)
(* Labels. *)

let labels_agree_with_naive g tree =
  let labels = Labels.build tree in
  let n = Graph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let a = naive_lca tree u v in
      if Labels.lca labels u v <> a then ok := false;
      if Labels.is_ancestor labels u v <> naive_is_ancestor tree u v then
        ok := false;
      if not (close (Labels.dist labels u v) (Tree.dist tree u v)) then
        ok := false;
      if
        Labels.dist_hops labels u v
        <> Tree.depth_hops tree u + Tree.depth_hops tree v
           - (2 * Tree.depth_hops tree a)
      then ok := false
    done
  done;
  !ok

let prop_labels_vs_naive =
  QCheck2.Test.make ~name:"labels = naive root-walk on random trees" ~count:40
    QCheck2.Gen.(pair (int_range 2 60) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 0x7ab |] in
      let g, tree = random_tree rng n in
      labels_agree_with_naive g tree)

let prop_labels_routes =
  QCheck2.Test.make ~name:"label routes are valid shortest tree paths" ~count:25
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 0x70e |] in
      let _g, tree = random_tree rng n in
      let labels = Labels.build tree in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let path = Labels.route labels ~src:u ~dst:v in
          (match path with
          | [] -> ok := false
          | first :: _ ->
            if first <> u then ok := false;
            let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> u in
            if last path <> v then ok := false);
          (* Hop count is the labelled tree distance; consecutive
             vertices are tree-adjacent. *)
          if List.length path <> Labels.dist_hops labels u v + 1 then ok := false;
          let rec adjacent = function
            | a :: (b :: _ as tl) ->
              let linked =
                match Tree.parent tree a with
                | Some (p, _) when p = b -> true
                | _ -> (
                  match Tree.parent tree b with
                  | Some (p, _) -> p = a
                  | None -> false)
              in
              linked && adjacent tl
            | _ -> true
          in
          if not (adjacent path) then ok := false
        done
      done;
      !ok)

let test_labels_on_mst () =
  (* The shape the oracle actually labels: the MST of a random graph. *)
  let rng = Random.State.make [| 0x3a; 5 |] in
  let g = Gen.erdos_renyi rng ~n:48 ~p:0.15 () in
  let tree = Tree.of_edges g ~root:7 (Mst_seq.kruskal g) in
  check "labels agree on MST" true (labels_agree_with_naive g tree);
  check "single-vertex tree" true
    (let g1 = Graph.create 1 [] in
     let t1 = Tree.of_edges g1 ~root:0 [] in
     let l = Labels.build t1 in
     Labels.lca l 0 0 = 0 && close (Labels.dist l 0 0) 0.0)

let test_labels_rejects_non_spanning () =
  let g = Gen.path 4 in
  let partial = Tree.of_edges g ~root:0 [ 0; 1 ] in
  check "non-spanning tree rejected" true
    (match Labels.build partial with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Artifact. *)

let build_artifact ?(n = 40) ?(seed = 11) () =
  let rng = Random.State.make [| seed; 0xa2 |] in
  let g = Gen.erdos_renyi rng ~n ~p:0.15 () in
  let mst = Mst_seq.kruskal g in
  (* A cheap stand-in for the spanner: MST plus every third edge. *)
  let extra =
    List.filteri (fun i _ -> i mod 3 = 0) (List.init (Graph.m g) Fun.id)
  in
  Artifact.make ~graph:g ~slt_root:3 ~spanner_stretch:3.0
    ~spanner_edges:(mst @ extra) ~slt_edges:mst ~mst_edges:mst
    ~params:[ ("model", "er"); ("n", string_of_int n) ]
    ~notes:[ ("seed", string_of_int seed) ]
    ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_tmp f =
  let path = Filename.temp_file "lightnet_test" ".artifact" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_artifact_roundtrip () =
  let art = build_artifact () in
  with_tmp (fun path ->
      Artifact.save path art;
      let loaded = Artifact.load path in
      check_int "n" (Graph.n art.Artifact.graph) (Graph.n loaded.Artifact.graph);
      check_int "m" (Graph.m art.Artifact.graph) (Graph.m loaded.Artifact.graph);
      check "digest" true (art.Artifact.digest = loaded.Artifact.digest);
      check "spanner edges" true
        (art.Artifact.spanner_edges = loaded.Artifact.spanner_edges);
      check "slt edges" true (art.Artifact.slt_edges = loaded.Artifact.slt_edges);
      check "mst edges" true (art.Artifact.mst_edges = loaded.Artifact.mst_edges);
      check "params" true (art.Artifact.params = loaded.Artifact.params);
      check "notes" true (art.Artifact.notes = loaded.Artifact.notes);
      check "stretch" true
        (art.Artifact.spanner_stretch = loaded.Artifact.spanner_stretch);
      check "graph weights survive" true
        (Graph.fold_edges art.Artifact.graph
           (fun id e acc ->
             let e' = Graph.edge loaded.Artifact.graph id in
             acc && e.Graph.u = e'.Graph.u && e.Graph.v = e'.Graph.v
             && e.Graph.w = e'.Graph.w)
           true))

let test_artifact_resave_byte_identical () =
  let art = build_artifact () in
  with_tmp (fun p1 ->
      with_tmp (fun p2 ->
          Artifact.save p1 art;
          let loaded = Artifact.load p1 in
          Artifact.save p2 loaded;
          check "save -> load -> save byte-identical" true
            (read_file p1 = read_file p2)))

let test_artifact_rejects_corruption () =
  let art = build_artifact () in
  with_tmp (fun path ->
      Artifact.save path art;
      let data = Bytes.of_string (read_file path) in
      (* Flip one payload byte: the checksum must catch it. *)
      let i = Bytes.length data - 5 in
      Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      check "corrupt payload rejected" true
        (match Artifact.load path with
        | exception Failure _ -> true
        | _ -> false));
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not an artifact";
      close_out oc;
      check "bad magic rejected" true
        (match Artifact.load path with
        | exception Failure _ -> true
        | _ -> false));
  with_tmp (fun path ->
      (* A bare 28-byte header claiming a 2^42-byte payload: rejected
         with a Failure before anything of that size is allocated. *)
      Artifact.save path art;
      let header = Bytes.of_string (String.sub (read_file path) 0 28) in
      Bytes.set_int64_le header 12 (Int64.shift_left 1L 42);
      let oc = open_out_bin path in
      output_bytes oc header;
      close_out oc;
      check "oversized payload length rejected" true
        (match Artifact.load path with
        | exception Failure _ -> true
        | _ -> false));
  (* Resealed mutants: both hashes recomputed, so only the loader's
     field checks stand in the way. Each is a Failure that names the
     broken field, never an Invalid_argument. *)
  with_tmp (fun path ->
      Artifact.save path art;
      List.iter
        (fun (name, bytes, mention) ->
          let oc = open_out_bin path in
          output_bytes oc bytes;
          close_out oc;
          match Artifact.load path with
          | exception Failure why ->
            if not (Resealed.mentions why "Artifact.load: " && Resealed.mentions why mention)
            then Alcotest.failf "%s: message %S does not name %S" name why mention
          | _ -> Alcotest.failf "%s: resealed mutant loaded" name)
        (Resealed.mutants (read_file path)))

let test_artifact_validates_inputs () =
  let g = Gen.path 4 in
  check "edge id out of range" true
    (match
       Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:1.0
         ~spanner_edges:[ 99 ] ~slt_edges:[] ~mst_edges:[] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "root out of range" true
    (match
       Artifact.make ~graph:g ~slt_root:9 ~spanner_stretch:1.0
         ~spanner_edges:[] ~slt_edges:[] ~mst_edges:[] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Oracle. *)

let test_oracle_tiers_agree () =
  let art = build_artifact ~n:36 () in
  let g = art.Artifact.graph in
  let oracle = Oracle.create ~cache_capacity:4 art in
  let mask = Array.make (Graph.m g) false in
  List.iter (fun e -> mask.(e) <- true) art.Artifact.spanner_edges;
  let slt_tree = Tree.of_edges g ~root:art.Artifact.slt_root art.Artifact.slt_edges in
  let pairs = Workload.generate ~seed:5 g Workload.Uniform ~count:120 in
  Array.iter
    (fun (u, v) ->
      let a = Oracle.query oracle ~tier:Oracle.Spanner u v in
      let b = Oracle.query oracle ~tier:Oracle.Label u v in
      let c = Oracle.query oracle ~tier:Oracle.Cache u v in
      let exact_h = (Paths.dijkstra ~edge_ok:(fun e -> mask.(e)) g u).Paths.dist.(v) in
      check "tier A = dijkstra on H" true (close a.Oracle.dist exact_h);
      check "tier C = tier A" true (close c.Oracle.dist a.Oracle.dist);
      check "tier B = SLT tree dist" true
        (close b.Oracle.dist (Tree.dist slt_tree u v));
      check "tier tags" true
        (a.Oracle.tier = Oracle.Spanner && b.Oracle.tier = Oracle.Label
       && c.Oracle.tier = Oracle.Cache))
    pairs

let test_oracle_cache_counters () =
  let art = build_artifact ~n:30 () in
  let oracle = Oracle.create ~cache_capacity:2 art in
  let q src = ignore (Oracle.query oracle ~tier:Oracle.Cache src ((src + 1) mod 30)) in
  q 0; q 0; q 0;            (* 1 miss, 2 hits *)
  q 1; q 2;                 (* 2 misses, second evicts src 0 *)
  q 0;                      (* miss again: it was evicted *)
  let s = Oracle.cache_stats oracle in
  check_int "hits" 2 s.Oracle.hits;
  check_int "misses" 4 s.Oracle.misses;
  check_int "evictions" 2 s.Oracle.evictions;
  check_int "entries bounded by capacity" 2 s.Oracle.entries;
  (* LRU not FIFO: touching the older entry protects it. *)
  let oracle = Oracle.create ~cache_capacity:2 art in
  let q src = ignore (Oracle.query oracle ~tier:Oracle.Cache src ((src + 1) mod 30)) in
  q 0; q 1; q 0; q 2;       (* 2 is inserted: victim must be 1, not 0 *)
  let before = (Oracle.cache_stats oracle).Oracle.hits in
  q 0;
  check_int "lru keeps the recently-touched source" (before + 1)
    (Oracle.cache_stats oracle).Oracle.hits

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A miss at capacity refills the evicted entry's array in place; the
   refilled answers must still be tier A's, bit for bit. *)
let test_oracle_cache_reuse_bit_identical () =
  let art = build_artifact ~n:60 () in
  let pairs = Workload.generate ~seed:8 art.Artifact.graph (Workload.Zipf 1.1) ~count:240 in
  List.iter
    (fun capacity ->
      let oracle = Oracle.create ~cache_capacity:capacity art in
      Array.iter
        (fun (u, v) ->
          let c = Oracle.query oracle ~tier:Oracle.Cache u v in
          let a = Oracle.query oracle ~tier:Oracle.Spanner u v in
          check "tier C = tier A, bit for bit" true (same_bits c.Oracle.dist a.Oracle.dist))
        pairs;
      let s = Oracle.cache_stats oracle in
      check "in-place refills exercised" true (s.Oracle.evictions > 100);
      check "hits exercised" true (s.Oracle.hits > 0))
    [ 1; 4 ]

(* An [edge_ok] that runs Dijkstra itself must not disturb the outer
   run: the nested call gets its own scratch. *)
let test_paths_reentrant_edge_ok () =
  let art = build_artifact ~n:40 () in
  let g = art.Artifact.graph in
  let mask = Array.make (Graph.m g) false in
  List.iter (fun e -> mask.(e) <- true) art.Artifact.spanner_edges;
  let plain e = mask.(e) in
  let nested e =
    let u, _ = Graph.endpoints g e in
    (Paths.dijkstra ~edge_ok:plain g u).Paths.dist.(u) = 0.0 && mask.(e)
  in
  let into = Array.make (Graph.n g) nan in
  for src = 0 to Graph.n g - 1 do
    let want = Paths.dijkstra ~edge_ok:plain g src in
    let got = Paths.dijkstra ~edge_ok:nested g src in
    check "nested dist" true (Array.for_all2 same_bits want.Paths.dist got.Paths.dist);
    check "nested parent edges" true (want.Paths.parent_edge = got.Paths.parent_edge);
    Paths.dist_into ~edge_ok:nested g src into;
    check "nested dist_into" true (Array.for_all2 same_bits want.Paths.dist into)
  done;
  (* One that raises mid-run leaves entries in the heap: the next run
     must start from an empty heap. *)
  let want = Paths.dijkstra ~edge_ok:plain g 1 in
  let calls = ref 0 in
  let raising e =
    incr calls;
    if !calls > 20 then raise Exit;
    mask.(e)
  in
  check "raising edge_ok propagates" true
    (match Paths.dijkstra ~edge_ok:raising g 0 with _ -> false | exception Exit -> true);
  let got = Paths.dijkstra ~edge_ok:plain g 1 in
  check "run after a raise" true (Array.for_all2 same_bits want.Paths.dist got.Paths.dist)

(* Labels are built on the first label-tier query and shared with
   clones: forced through a clone, a loaded oracle answers the label
   tier from those labels, which equal a fresh build. *)
let test_oracle_lazy_labels () =
  let art = build_artifact ~n:36 () in
  with_tmp (fun path ->
      Artifact.save path art;
      let loaded = Artifact.load path in
      let oracle = Oracle.create loaded in
      let forced = Oracle.labels (Oracle.clone oracle) in
      check "clone shares the labels" true (Oracle.labels oracle == forced);
      let g = loaded.Artifact.graph in
      let fresh =
        Labels.build
          (Tree.of_edges g ~root:loaded.Artifact.slt_root loaded.Artifact.slt_edges)
      in
      Array.iter
        (fun (u, v) ->
          let a = Oracle.query oracle ~tier:Oracle.Label u v in
          check "label tier = fresh labels" true (same_bits a.Oracle.dist (Labels.dist fresh u v)))
        (Workload.generate ~seed:9 g Workload.Uniform ~count:200))

(* Deterministic cost gate: once the source cache is full, a miss
   refills the evicted array and Dijkstra runs on per-domain scratch,
   so 100 warm misses allocate less than one n-sized array directly in
   the major heap. A fresh array per miss would be 100n words. *)
let test_oracle_warm_misses_allocation () =
  let n = 2000 in
  let rng = Random.State.make [| 0xa110c; n |] in
  let g =
    Gen.ensure_connected rng
      (fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ()))
  in
  let mst = Mst_seq.kruskal g in
  let extra = List.filteri (fun i _ -> i mod 3 = 0) (List.init (Graph.m g) Fun.id) in
  let art =
    Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:3.0 ~spanner_edges:(mst @ extra)
      ~slt_edges:mst ~mst_edges:mst ()
  in
  let capacity = 64 in
  let oracle = Oracle.create ~cache_capacity:capacity art in
  let miss src = ignore (Oracle.query oracle ~tier:Oracle.Cache src 0) in
  for src = 0 to capacity - 1 do
    miss src
  done;
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct_major () in
  for src = capacity to capacity + 99 do
    miss src
  done;
  let grown = direct_major () -. before in
  check_int "every query missed" (capacity + 100) (Oracle.cache_stats oracle).Oracle.misses;
  if grown >= float_of_int n then
    Alcotest.failf "100 warm misses allocated %.0f words in the major heap (gate: < n = %d)"
      grown n

(* ------------------------------------------------------------------ *)
(* Workload. *)

let test_workload_deterministic () =
  let art = build_artifact () in
  let g = art.Artifact.graph in
  List.iter
    (fun spec ->
      let a = Workload.generate ~seed:9 g spec ~count:200 in
      let b = Workload.generate ~seed:9 g spec ~count:200 in
      let c = Workload.generate ~seed:10 g spec ~count:200 in
      check (Workload.describe spec ^ " same seed = same pairs") true (a = b);
      check (Workload.describe spec ^ " different seed differs") true (a <> c);
      Array.iter
        (fun (u, v) ->
          check "endpoints in range, distinct" true
            (u >= 0 && u < Graph.n g && v >= 0 && v < Graph.n g && u <> v))
        a)
    [ Workload.Uniform; Workload.Zipf 1.2; Workload.Local 2 ]

let test_workload_shapes () =
  let art = build_artifact ~n:60 () in
  let g = art.Artifact.graph in
  (* Zipf concentrates sources: the hottest source must exceed the
     uniform share by a wide margin. *)
  let pairs = Workload.generate ~seed:3 g (Workload.Zipf 1.3) ~count:2000 in
  let counts = Array.make (Graph.n g) 0 in
  Array.iter (fun (u, _) -> counts.(u) <- counts.(u) + 1) pairs;
  let hottest = Array.fold_left max 0 counts in
  check "zipf has a hot source" true (hottest > 3 * (2000 / Graph.n g));
  (* Local pairs stay within the hop radius. *)
  let radius = 2 in
  let pairs = Workload.generate ~seed:3 g (Workload.Local radius) ~count:300 in
  Array.iter
    (fun (u, v) ->
      let hops = (Paths.bfs_hops g u).(v) in
      check "local pair within radius" true (hops >= 1 && hops <= radius))
    pairs;
  check "spec parser" true
    (Workload.parse "uniform" = Some Workload.Uniform
    && Workload.parse "zipf" = Some (Workload.Zipf 1.1)
    && Workload.parse "zipf:1.5" = Some (Workload.Zipf 1.5)
    && Workload.parse "local:4" = Some (Workload.Local 4)
    && Workload.parse "nope" = None)

(* ------------------------------------------------------------------ *)
(* Serve. *)

let test_serve_checksum_replayable () =
  let art = build_artifact ~n:40 () in
  let pairs = Workload.generate ~seed:2 art.Artifact.graph (Workload.Zipf 1.1) ~count:300 in
  let run () =
    let oracle = Oracle.create ~cache_capacity:8 art in
    (Serve.run oracle ~tier:Oracle.Cache pairs).Serve.checksum
  in
  check "serve checksum replays bit-for-bit" true (run () = run ());
  let oracle = Oracle.create ~cache_capacity:8 art in
  let o = Serve.run oracle ~tier:Oracle.Label pairs in
  check_int "all queries answered" 300 o.Serve.queries;
  check "percentiles ordered" true
    (o.Serve.latency.Serve.p50_us <= o.Serve.latency.Serve.p90_us
    && o.Serve.latency.Serve.p90_us <= o.Serve.latency.Serve.p99_us
    && o.Serve.latency.Serve.p99_us <= o.Serve.latency.Serve.max_us)

let test_certify_correct_and_wrong () =
  let art = build_artifact ~n:40 () in
  let oracle = Oracle.create art in
  let pairs = Workload.generate ~seed:4 art.Artifact.graph Workload.Uniform ~count:250 in
  (* The "spanner" here contains the MST, so distances on H are finite;
     certifying against a generous bound must pass on the cache tier. *)
  let cert =
    Serve.certify oracle ~tier:Oracle.Cache ~bound:art.Artifact.spanner_stretch pairs
  in
  check "cache tier certifies" true
    (cert.Serve.report.Monitor.verdict = Monitor.Correct);
  check_int "no violations" 0 cert.Serve.violations;
  check "max stretch sane" true (cert.Serve.max_stretch >= 1.0);
  (* An impossible bound must be caught and reported as Wrong, with
     the violations counted. *)
  let too_tight = Serve.certify oracle ~tier:Oracle.Label ~bound:1.0 pairs in
  if too_tight.Serve.max_stretch > 1.0 +. 1e-6 then begin
    check "tight bound yields Wrong" true
      (too_tight.Serve.report.Monitor.verdict = Monitor.Wrong);
    check "violations counted" true (too_tight.Serve.violations > 0)
  end;
  (* Sampling caps the replayed pairs. *)
  let sampled = Serve.certify ~sample:50 oracle ~tier:Oracle.Cache ~bound:10.0 pairs in
  check_int "sample honoured" 50 sampled.Serve.sampled

(* Pin the tiny-batch latency contract: batches at or under
   Serve.exact_threshold report *exact* sorted-array percentiles (the
   rank-ceil(p*n) definition BENCH_oracle.json has always used), and
   the streaming histogram path used above the threshold agrees with
   the exact values to within its relative-error bound. *)
let test_latency_exact_fallback () =
  check_int "exact threshold pinned" 1024 Serve.exact_threshold;
  let lat = Serve.latency_of_samples [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check "p50 = rank 3 of 5" true (lat.Serve.p50_us = 3.0);
  check "p90 = rank 5 of 5" true (lat.Serve.p90_us = 5.0);
  check "p99 = rank 5 of 5" true (lat.Serve.p99_us = 5.0);
  check "max exact" true (lat.Serve.max_us = 5.0);
  let one = Serve.latency_of_samples [| 7.5 |] in
  check "singleton batch is its own percentile" true
    (one.Serve.p50_us = 7.5 && one.Serve.p99_us = 7.5 && one.Serve.max_us = 7.5);
  let n = 10_000 in
  let samples = Array.init n (fun i -> float_of_int (1 + ((i * 7919) mod n))) in
  let h = Ln_obs.Metrics.Hist.create () in
  Array.iter (Ln_obs.Metrics.Hist.observe h) samples;
  let exact = Serve.latency_of_samples samples in
  let stream = Serve.latency_of_hist h in
  let close a b = Float.abs (a -. b) <= 1.05 *. Ln_obs.Metrics.Hist.error *. b in
  check "streaming p50 within bound" true (close stream.Serve.p50_us exact.Serve.p50_us);
  check "streaming p90 within bound" true (close stream.Serve.p90_us exact.Serve.p90_us);
  check "streaming p99 within bound" true (close stream.Serve.p99_us exact.Serve.p99_us);
  check "streaming max is exact" true (stream.Serve.max_us = exact.Serve.max_us)

let () =
  Alcotest.run "ln_route"
    [
      ("rmq", [ Alcotest.test_case "exhaustive vs naive" `Quick test_rmq_exhaustive ]);
      ( "labels",
        [
          qcheck prop_labels_vs_naive;
          qcheck prop_labels_routes;
          Alcotest.test_case "labels on MST + singleton" `Quick test_labels_on_mst;
          Alcotest.test_case "rejects non-spanning" `Quick
            test_labels_rejects_non_spanning;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "resave byte-identical" `Quick
            test_artifact_resave_byte_identical;
          Alcotest.test_case "rejects corruption" `Quick
            test_artifact_rejects_corruption;
          Alcotest.test_case "validates inputs" `Quick test_artifact_validates_inputs;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "tiers agree" `Quick test_oracle_tiers_agree;
          Alcotest.test_case "cache counters + lru" `Quick test_oracle_cache_counters;
          Alcotest.test_case "cache reuse = tier A, bit for bit" `Quick
            test_oracle_cache_reuse_bit_identical;
          Alcotest.test_case "re-entrant + raising edge_ok" `Quick
            test_paths_reentrant_edge_ok;
          Alcotest.test_case "warm misses allocate no array" `Quick
            test_oracle_warm_misses_allocation;
          Alcotest.test_case "labels built on first use, shared by clones" `Quick
            test_oracle_lazy_labels;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
        ] );
      ( "serve",
        [
          Alcotest.test_case "checksum replayable" `Quick
            test_serve_checksum_replayable;
          Alcotest.test_case "tiny-batch latency exact" `Quick
            test_latency_exact_fallback;
          Alcotest.test_case "certify correct + wrong" `Quick
            test_certify_correct_and_wrong;
        ] );
    ]
