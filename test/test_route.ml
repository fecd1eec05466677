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
module Hist = Ln_obs.Metrics.Hist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

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

(* The naive root-walk LCA the labels must reproduce. *)
let naive_lca tree u v =
  let parent = (Tree.view tree).Tree.parent in
  let rec ancestors v acc = if v < 0 then acc else ancestors parent.(v) (v :: acc) in
  let au = ancestors u [] in
  (* Deepest vertex on v's root path that is also on u's. *)
  let rec walk v = if List.mem v au then v else walk parent.(v) in
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
      if Labels.lca labels u v <> naive_lca tree u v then ok := false;
      if not (close (Labels.dist labels u v) (Tree.dist tree u v)) then
        ok := false
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
      check "tier A = dijkstra on H, bit for bit" true (same_bits a.Oracle.dist exact_h);
      check "tier C = tier A, bit for bit" true (same_bits c.Oracle.dist a.Oracle.dist);
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

(* Tiers A and C run the oracle's own kernel on its own index of H;
   [Paths.dijkstra] on G through a mask of H is the reference. From
   every source, every distance must match bit for bit, [infinity]
   included: on geometric, ER and unit-weight graphs (ties
   everywhere), on spanner subsets that leave H disconnected, at
   n = 1, and on edge-id lists that repeat ids and come in any order,
   as [Artifact.load] keeps them. Tier C, through a two-entry cache
   that evicts on most misses, must answer as tier A. *)
let prop_spanner_sssp_bit_exact =
  QCheck2.Test.make ~name:"spanner sssp = masked dijkstra, bit for bit" ~count:150
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x55 |] in
      let n = if seed mod 16 = 0 then 1 else 2 + Random.State.int rng 50 in
      let g =
        match Random.State.int rng 3 with
        | 0 ->
          fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ())
        | 1 -> Gen.erdos_renyi rng ~n ~p:0.2 ()
        | _ ->
          let g = Gen.erdos_renyi rng ~n ~p:0.2 () in
          Graph.create n
            (Graph.fold_edges g (fun _ e acc -> { e with Graph.w = 1.0 } :: acc) [])
      in
      let keep = [| 0.3; 0.7; 1.0 |].(Random.State.int rng 3) in
      let ids =
        List.filter (fun _ -> Random.State.float rng 1.0 < keep) (List.init (Graph.m g) Fun.id)
      in
      (* Every fourth id twice, then shuffled. *)
      let ids =
        ids @ List.filteri (fun i _ -> i mod 4 = 0) ids
        |> List.map (fun e -> (Random.State.bits rng, e))
        |> List.sort compare |> List.map snd
      in
      let mask = Array.make (Graph.m g) false in
      List.iter (fun e -> mask.(e) <- true) ids;
      let mst = Mst_seq.kruskal g in
      let art =
        Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:1.0 ~spanner_edges:[] ~slt_edges:mst
          ~mst_edges:mst ()
      in
      let oracle = Oracle.create ~cache_capacity:2 { art with Artifact.spanner_edges = ids } in
      let tier_a =
        Array.init n (fun src ->
            let want = (Paths.dijkstra ~edge_ok:(fun e -> mask.(e)) g src).Paths.dist in
            let got = Oracle.spanner_sssp oracle src in
            if not (Array.for_all2 same_bits want got) then
              QCheck2.Test.fail_reportf "seed %d, n %d: source %d differs" seed n src;
            got)
      in
      for _ = 1 to 3 * n do
        let u = Random.State.int rng n in
        for v = 0 to n - 1 do
          let c = Oracle.query oracle ~tier:Oracle.Cache u v in
          if not (same_bits c.Oracle.dist tier_a.(u).(v)) then
            QCheck2.Test.fail_reportf "seed %d: tier C (%d, %d) differs" seed u v
        done
      done;
      true)

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
  for src = 0 to Graph.n g - 1 do
    let want = Paths.dijkstra ~edge_ok:plain g src in
    let got = Paths.dijkstra ~edge_ok:nested g src in
    check "nested dist" true (Array.for_all2 same_bits want.Paths.dist got.Paths.dist);
    check "nested parent edges" true (want.Paths.parent_edge = got.Paths.parent_edge);
    let multi, _ = Paths.dijkstra_multi ~edge_ok:nested g [ src ] in
    check "nested multi dist" true (Array.for_all2 same_bits want.Paths.dist multi.Paths.dist);
    check "nested multi parent edges" true
      (want.Paths.parent_edge = multi.Paths.parent_edge)
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

(* The fixed n = 2,000 artifact of the allocation gates below. *)
let alloc_artifact () =
  let n = 2000 in
  let rng = Random.State.make [| 0xa110c; n |] in
  let g =
    Gen.ensure_connected rng
      (fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ()))
  in
  let mst = Mst_seq.kruskal g in
  let extra = List.filteri (fun i _ -> i mod 3 = 0) (List.init (Graph.m g) Fun.id) in
  Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:3.0 ~spanner_edges:(mst @ extra)
    ~slt_edges:mst ~mst_edges:mst ()

(* Deterministic cost gate: once the source cache is full, a miss
   refills the evicted entry's array in place, and the spanner Dijkstra
   runs on grow-only scratch with its keys in that array, so 100 warm
   misses allocate only the LRU's bookkeeping and the answers. The
   artifact is fixed, so the count is exact. The same misses on the
   lazy-deletion heap of [Paths], walking G through a mask and boxing
   every pushed distance, allocated 542,002 words. *)
let test_oracle_warm_misses_allocation () =
  let capacity = 64 in
  let oracle = Oracle.create ~cache_capacity:capacity (alloc_artifact ()) in
  let miss src = ignore (Oracle.query oracle ~tier:Oracle.Cache src 0) in
  for src = 0 to capacity - 1 do
    miss src
  done;
  let used =
    Store_fixture.words_allocated (fun () ->
        for src = capacity to capacity + 99 do
          miss src
        done)
  in
  check_int "every query missed" (capacity + 100) (Oracle.cache_stats oracle).Oracle.misses;
  check_int "words per 100 warm misses" 3_212 used

(* The same gate for tier A on the same artifact: each query refills
   the grow-only scratch distances, so once the first query has built
   the index and grown the scratch, 100 queries allocate only their
   answers. A fresh n-sized array per query allocated 200,712 words. *)
let test_oracle_tier_a_allocation () =
  let oracle = Oracle.create (alloc_artifact ()) in
  let query src = ignore (Oracle.query oracle ~tier:Oracle.Spanner src 0) in
  query 0;
  let used =
    Store_fixture.words_allocated (fun () ->
        for src = 1 to 100 do
          query src
        done)
  in
  check_int "words per 100 tier-A queries" 612 used

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

(* Every batch's percentiles come from its latency histogram: a lone
   sample is exact everywhere, and on a small batch each percentile
   lies within the histogram's 1% of its exact rank-ceil(p * n) value,
   in order, with the exact max. The error bound over arbitrary inputs
   is test_obs's QCheck property. *)
let test_latency_of_hist () =
  let of_samples samples =
    let h = Hist.create () in
    List.iter (Hist.observe h) samples;
    Serve.latency_of_hist h
  in
  let one = of_samples [ 7.5 ] in
  check "one sample is every percentile" true
    (one.Serve.p50_us = 7.5 && one.Serve.p90_us = 7.5 && one.Serve.p99_us = 7.5
   && one.Serve.max_us = 7.5);
  let lat = of_samples [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  check "percentiles ordered" true
    (lat.Serve.p50_us <= lat.Serve.p90_us && lat.Serve.p90_us <= lat.Serve.p99_us
   && lat.Serve.p99_us <= lat.Serve.max_us);
  check "max exact" true (lat.Serve.max_us = 5.0);
  let near est exact = Float.abs (est -. exact) <= Hist.error *. exact in
  check "p50 near rank 3 of 5" true (near lat.Serve.p50_us 3.0);
  check "p90 near rank 5 of 5" true (near lat.Serve.p90_us 5.0);
  check "p99 near rank 5 of 5" true (near lat.Serve.p99_us 5.0)

let () =
  Alcotest.run "ln_route"
    [
      ("rmq", [ Alcotest.test_case "exhaustive vs naive" `Quick test_rmq_exhaustive ]);
      ( "labels",
        [
          qcheck prop_labels_vs_naive;
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
          qcheck prop_spanner_sssp_bit_exact;
          Alcotest.test_case "cache counters + lru" `Quick test_oracle_cache_counters;
          Alcotest.test_case "cache reuse = tier A, bit for bit" `Quick
            test_oracle_cache_reuse_bit_identical;
          Alcotest.test_case "re-entrant + raising edge_ok" `Quick
            test_paths_reentrant_edge_ok;
          Alcotest.test_case "warm misses allocate no array" `Quick
            test_oracle_warm_misses_allocation;
          Alcotest.test_case "tier-A queries allocate no array" `Quick
            test_oracle_tier_a_allocation;
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
          Alcotest.test_case "latency from histogram" `Quick test_latency_of_hist;
          Alcotest.test_case "certify correct + wrong" `Quick
            test_certify_correct_and_wrong;
        ] );
    ]
