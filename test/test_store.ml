(* Tests for the digest-keyed artifact store and the fleet driver:
   LRU residency/eviction order, quarantine semantics (corruption is
   contained, never fatal), and the fleet's guarantee that each
   network's checksum equals a Serve.run replay of its pairs, bit for
   bit. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Mst_seq = Ln_graph.Mst_seq
module Artifact = Ln_route.Artifact
module Oracle = Ln_route.Oracle
module Workload = Ln_route.Workload
module Serve = Ln_route.Serve
module Store = Ln_store.Store
module Fleet = Ln_store.Fleet

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5704 |]) t

open Store_fixture

(* ------------------------------------------------------------------ *)
(* Store semantics. *)

let test_add_and_ls () =
  with_tmp_dir @@ fun dir ->
  let digests = populate dir ~count:3 in
  let st = Store.open_dir dir in
  check_int "3 ready" 3 (List.length (Store.digests st));
  check "digests sorted" true
    (Store.digests st = List.sort String.compare digests);
  (* Adding the same content again is a duplicate, not a new entry. *)
  let art = make_artifact ~seed:100 () in
  let tmp = Filename.temp_file "lightnet_store_src" ".artifact" in
  Artifact.save tmp art;
  (match Store.add st tmp with
  | Ok (_, `Duplicate) -> ()
  | Ok (_, `Added) -> Alcotest.fail "re-add should be a duplicate"
  | Error why -> Alcotest.fail why);
  Sys.remove tmp;
  check_int "still 3 ready" 3 (List.length (Store.digests st));
  List.iter
    (fun (e : Store.entry) ->
      check "entry ready" true (e.Store.status = Store.Ready);
      check "entry has bytes" true (e.Store.bytes > 0);
      check "nothing loaded yet" false e.Store.loaded)
    (Store.ls st)

let test_lru_eviction_order () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir ~capacity:2 dir in
  let a, b, c =
    match Store.digests st with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "expected 3 digests"
  in
  let get d =
    match Store.oracle st d with
    | Ok o -> o
    | Error why -> Alcotest.fail why
  in
  let oa = get a in
  let ob = get b in
  (* Capacity 2 is full; touching b then loading c must evict a (the
     stalest), not b. *)
  let ob' = get b in
  check "hit returns the resident instance" true (ob == ob');
  let _ = get c in
  let s = Store.stats st in
  check_int "one eviction" 1 s.Store.evictions;
  check_int "one hit" 1 s.Store.hits;
  check_int "three loads" 3 s.Store.misses;
  check_int "two resident" 2 s.Store.loaded;
  check "a was evicted" false
    (List.exists
       (fun (e : Store.entry) -> e.Store.digest = a && e.Store.loaded)
       (Store.ls st));
  (* Reloading a gives a fresh oracle (the old one was dropped) and
     evicts c — b stays, still the most recently touched before c. *)
  let oa' = get a in
  check "evicted oracle is reloaded fresh" true (oa != oa');
  let s = Store.stats st in
  check_int "two evictions" 2 s.Store.evictions;
  check_int "four loads" 4 s.Store.misses

let test_capacity_pins_everything () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir ~capacity:3 dir in
  let digests = Store.digests st in
  let touch () =
    List.iter
      (fun d ->
        match Store.oracle st d with
        | Ok _ -> ()
        | Error why -> Alcotest.fail why)
      digests
  in
  touch ();
  touch ();
  touch ();
  let s = Store.stats st in
  check_int "no evictions at capacity" 0 s.Store.evictions;
  check_int "one load per network" 3 s.Store.misses;
  check_int "every other touch hits" 6 s.Store.hits;
  check_int "all resident" 3 s.Store.loaded

let corrupt_file path =
  let bytes =
    In_channel.with_open_bin path (fun ic ->
        Bytes.of_string (In_channel.input_all ic))
  in
  Bytes.set bytes 100 (Char.chr (Char.code (Bytes.get bytes 100) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes)

(* Keep only the 28-byte header and make it claim a 2^42-byte payload. *)
let oversized_header path =
  let header =
    In_channel.with_open_bin path (fun ic ->
        Bytes.of_string (really_input_string ic 28))
  in
  Bytes.set_int64_le header 12 (Int64.shift_left 1L 42);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc header)

let corrupt_quarantined_not_fatal corrupt =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir dir in
  let a, b, c =
    match Store.digests st with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "expected 3 digests"
  in
  corrupt (Filename.concat dir (b ^ ".artifact"));
  (match Store.oracle st b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt artifact must not load");
  (* The other networks keep serving. *)
  check "a serves" true (Result.is_ok (Store.oracle st a));
  check "c serves" true (Result.is_ok (Store.oracle st c));
  let s = Store.stats st in
  check_int "one quarantined" 1 s.Store.quarantined;
  check_int "two ready" 2 s.Store.ready;
  check "husk renamed" true
    (Sys.file_exists (Filename.concat dir (b ^ ".artifact.quarantined")));
  check "original gone" false
    (Sys.file_exists (Filename.concat dir (b ^ ".artifact")));
  (* A second resolve of the quarantined digest fails fast (no load). *)
  let before = (Store.stats st).Store.misses in
  (match Store.oracle st b with Error _ -> () | Ok _ -> Alcotest.fail "still bad");
  check_int "no reload attempt" before (Store.stats st).Store.misses;
  (* gc deletes the husk and forgets the digest. *)
  check_int "gc collects one" 1 (Store.gc st);
  check_int "nothing quarantined after gc" 0 (Store.stats st).Store.quarantined;
  check "husk deleted" false
    (Sys.file_exists (Filename.concat dir (b ^ ".artifact.quarantined")))

let test_corrupt_artifact_quarantined_not_fatal () =
  List.iter corrupt_quarantined_not_fatal [ corrupt_file; oversized_header ]

let test_digest_mismatch_quarantined () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:2 in
  let st = Store.open_dir dir in
  let a, b =
    match Store.digests st with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected 2 digests"
  in
  (* A valid artifact parked under the wrong name: b's file now holds
     a's bytes. Artifact.load accepts it, the store must not. *)
  let bytes =
    In_channel.with_open_bin
      (Filename.concat dir (a ^ ".artifact"))
      In_channel.input_all
  in
  Out_channel.with_open_bin (Filename.concat dir (b ^ ".artifact")) (fun oc ->
      Out_channel.output_string oc bytes);
  (match Store.oracle st b with
  | Error why ->
    check "mismatch reason names both digests" true
      (Resealed.mentions why a && Resealed.mentions why b)
  | Ok _ -> Alcotest.fail "impersonating artifact must not load");
  check "a still serves" true (Result.is_ok (Store.oracle st a));
  check_int "one quarantined" 1 (Store.stats st).Store.quarantined

let test_truncated_artifact_quarantined () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:2 in
  let st = Store.open_dir dir in
  let a, b =
    match Store.digests st with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected 2 digests"
  in
  let path = Filename.concat dir (b ^ ".artifact") in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 100));
  (match Store.oracle st b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated artifact must not load");
  check "a still serves" true (Result.is_ok (Store.oracle st a));
  (* verify agrees and reports the stored reason. *)
  let results = Store.verify st in
  check_int "verify covers both" 2 (List.length results);
  check "a verifies" true (Result.is_ok (List.assoc a results));
  check "b fails verify" true (Result.is_error (List.assoc b results));
  (* Re-adding good copies revives the quarantined digest; the intact
     one is reported as a duplicate. Which seed produced which digest is
     an artifact-format detail, so re-add both and check per digest. *)
  List.iter
    (fun seed ->
      let art = make_artifact ~seed () in
      let tmp = Filename.temp_file "lightnet_store_src" ".artifact" in
      Artifact.save tmp art;
      (match Store.add st tmp with
      | Ok (d, `Added) -> check "revived digest is the truncated one" true (d = b)
      | Ok (d, `Duplicate) -> check "duplicate is the intact one" true (d = a)
      | Error why -> Alcotest.fail why);
      Sys.remove tmp)
    [ 100; 101 ];
  check_int "both ready after revival" 2 (List.length (Store.digests st));
  check "revived serves" true (Result.is_ok (Store.oracle st b))

let test_reopen_sees_quarantine () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:2 in
  let st = Store.open_dir dir in
  let b = List.nth (Store.digests st) 1 in
  corrupt_file (Filename.concat dir (b ^ ".artifact"));
  (match Store.oracle st b with Error _ -> () | Ok _ -> Alcotest.fail "bad");
  (* A fresh process scanning the directory sees the husk. *)
  let st2 = Store.open_dir dir in
  check_int "reopen: 1 ready" 1 (List.length (Store.digests st2));
  check_int "reopen: 1 quarantined" 1 (Store.stats st2).Store.quarantined

(* Words allocated by one call, minor + major - promoted. [Gc.minor]
   empties the minor heap before each reading: OCaml 5.1's
   [Gc.counters] counts only an eighth of the words in a partly filled
   minor heap. *)
let words_allocated f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  f ();
  int_of_float (words () -. before)

(* Deterministic cost gate: a store miss decodes the artifact into the
   graph's columns without re-sorting them and roots the SLT without
   labelling it. The artifact (n = 200, m = 3,022) is fixed, so the
   count is exact. A loader that re-sorted the edges, hashed the graph
   section twice, sorted the edge-id lists and labelled the SLT at once
   allocated 183,083 words for the same miss. *)
let test_words_per_load () =
  with_tmp_dir @@ fun dir ->
  let d = List.hd (populate ~n:200 dir ~count:1) in
  let st = Store.open_dir dir in
  let used =
    words_allocated (fun () ->
        match Store.oracle st d with Ok _ -> () | Error why -> Alcotest.fail why)
  in
  check_int "one miss" 1 (Store.stats st).Store.misses;
  check_int "words per store load" 64_975 used

(* ------------------------------------------------------------------ *)
(* Fleet. *)

let test_workload_deterministic_and_skewed () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir dir in
  let w1 = Fleet.workload ~seed:5 ~net_skew:1.4 st Workload.Uniform ~count:400 in
  let w2 = Fleet.workload ~seed:5 ~net_skew:1.4 st Workload.Uniform ~count:400 in
  check "same seed, same workload" true (w1 = w2);
  let w3 = Fleet.workload ~seed:6 ~net_skew:1.4 st Workload.Uniform ~count:400 in
  check "different seed, different workload" false (w1 = w3);
  (* Zipf over sorted digests: rank 0 must be the most requested. *)
  let first = List.hd (Store.digests st) in
  let count_net d =
    Array.fold_left
      (fun acc (r : Fleet.request) -> if r.Fleet.net = d then acc + 1 else acc)
      0 w1
  in
  List.iter
    (fun d -> check "rank 0 dominates" true (count_net first >= count_net d))
    (Store.digests st)

let run_fleet st ~tier requests =
  let o = Fleet.run st ~tier requests in
  (o, Fleet.checksum_lines o)

(* The request pairs of one network, in request order. *)
let pairs_of requests digest =
  Array.to_list requests
  |> List.filter_map (fun (r : Fleet.request) ->
         if r.Fleet.net = digest then Some (r.Fleet.u, r.Fleet.v) else None)
  |> Array.of_list

let resident st digest =
  match Store.oracle st digest with Ok o -> o | Error why -> Alcotest.fail why

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let test_fleet_matches_sequential_serve () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir dir in
  let requests = Fleet.workload ~seed:3 st Workload.Uniform ~count:500 in
  let outcome, _ = run_fleet st ~tier:Oracle.Label requests in
  check_int "nothing skipped" 0 outcome.Fleet.skipped;
  check_int "all answered" 500 outcome.Fleet.queries;
  check_int "three networks" 3 outcome.Fleet.networks;
  (* Each per-network checksum equals a straight Serve.run replay of
     that network's requests: same answers, same addition order. *)
  List.iter
    (fun (n : Fleet.net_outcome) ->
      let pairs = pairs_of requests n.Fleet.digest in
      check_int "per-net query count" (Array.length pairs) n.Fleet.queries;
      let replay = Serve.run (resident st n.Fleet.digest) ~tier:Oracle.Label pairs in
      check "per-net checksum = sequential serve, bit for bit" true
        (same_bits replay.Serve.checksum n.Fleet.checksum))
    outcome.Fleet.nets

(* 1,500 requests, so summing a batch block by block (say, in blocks
   of 512) instead of in request order would show in the last bits.
   [max 1]: QCheck's int shrinker ignores [int_range]'s lower bound. *)
let checksum_replay_prop =
  QCheck.Test.make ~count:6 ~name:"fleet checksums = Serve.run replay, bit for bit"
    QCheck.(
      pair (pair small_nat (int_range 1 3))
        (oneofl [ Oracle.Spanner; Oracle.Label; Oracle.Cache ]))
    (fun ((seed, nets), tier) ->
      with_tmp_dir @@ fun dir ->
      let _ = populate ~n:30 dir ~count:(max 1 nets) in
      let st = Store.open_dir ~capacity:2 dir in
      let requests =
        Fleet.workload ~seed ~net_skew:1.2 st (Workload.Zipf 1.1) ~count:1500
      in
      let o, lines = run_fleet st ~tier requests in
      let replays_match =
        List.for_all
          (fun (n : Fleet.net_outcome) ->
            let pairs = pairs_of requests n.Fleet.digest in
            let replay = Serve.run (resident st n.Fleet.digest) ~tier pairs in
            n.Fleet.queries = Array.length pairs
            && same_bits n.Fleet.checksum replay.Serve.checksum)
          o.Fleet.nets
      in
      (* Tiers A and C answer the same exact distances on H. *)
      let tiers_match =
        match tier with
        | Oracle.Label -> true
        | Oracle.Spanner -> lines = snd (run_fleet st ~tier:Oracle.Cache requests)
        | Oracle.Cache -> lines = snd (run_fleet st ~tier:Oracle.Spanner requests)
      in
      replays_match && tiers_match)

let test_fleet_skips_quarantined () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir dir in
  let b = List.nth (Store.digests st) 1 in
  let requests = Fleet.workload ~seed:2 st Workload.Uniform ~count:300 in
  corrupt_file (Filename.concat dir (b ^ ".artifact"));
  (* Force the store to notice: drop any resident copy first. *)
  let st = Store.open_dir dir in
  let outcome, _ = run_fleet st ~tier:Oracle.Label requests in
  check "some skipped" true (outcome.Fleet.skipped > 0);
  check_int "two networks still answered" 2 outcome.Fleet.networks;
  check_int "answered + skipped = total" 300
    (outcome.Fleet.queries + outcome.Fleet.skipped);
  check "b not in outcome" false
    (List.exists
       (fun (n : Fleet.net_outcome) -> n.Fleet.digest = b)
       outcome.Fleet.nets)

(* Artifacts that pass every format check but that no oracle can
   serve: on a 4-cycle the SLT is the whole cycle, on a 5-cycle it is
   one edge. *)
let unservable_artifacts () =
  List.map
    (fun (n, slt_edges) ->
      let g = Gen.cycle n in
      Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:1.0
        ~spanner_edges:(List.init (Graph.m g) Fun.id) ~slt_edges ~mst_edges:[] ())
    [ (4, [ 0; 1; 2; 3 ]); (5, [ 0 ]) ]

let bytes_of art =
  let tmp = Filename.temp_file "lightnet_store_src" ".artifact" in
  Artifact.save tmp art;
  let b = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  b

(* Every file the store must refuse, as (digest, bytes), in two
   lists: the files with a digest of their own (the unservable
   artifacts and the resealed mutants that edit the graph section),
   and the resealed mutants that leave the graph alone and so keep
   their source's digest. *)
let bad_files () =
  let src = make_artifact ~seed:7 () in
  let shared, own =
    List.map
      (fun (_, b, _) -> (Resealed.digest_hex b, Bytes.to_string b))
      (Resealed.mutants (bytes_of src))
    |> List.partition (fun (d, _) -> d = Artifact.digest_hex src)
  in
  ( List.map (fun art -> (Artifact.digest_hex art, bytes_of art)) (unservable_artifacts ())
    @ own,
    shared )

let write path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let park dir (digest, bytes) =
  write (Filename.concat dir (digest ^ ".artifact")) bytes;
  digest

let test_unservable_artifacts_quarantined () =
  with_tmp_dir @@ fun dir ->
  let good = populate dir ~count:2 in
  let st = Store.open_dir dir in
  let requests = Fleet.workload ~seed:4 st Workload.Uniform ~count:200 in
  let own, shared = bad_files () in
  check_int "five bad files with digests of their own" 5
    (List.length (List.sort_uniq String.compare (List.map fst own)));
  check_int "four mutants share their source's digest" 4 (List.length shared);
  List.iter
    (fun (_, bytes) ->
      let tmp = Filename.temp_file "lightnet_store_src" ".artifact" in
      write tmp bytes;
      (match Store.add st tmp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "store add accepted an unservable artifact");
      Sys.remove tmp)
    (own @ shared);
  check_int "nothing added" 2 (List.length (Store.digests st));
  let serve_and_verify bad =
    let k = List.length bad in
    (* Parked in the directory under their own digests, they are
       skipped by the fleet while the other networks serve. *)
    let bad_digests = List.map (park dir) bad in
    let requests =
      Array.append requests
        (Array.of_list (List.map (fun d -> { Fleet.net = d; u = 0; v = 1 }) bad_digests))
    in
    let st = Store.open_dir dir in
    check_int "parked files indexed" (2 + k) (List.length (Store.digests st));
    let outcome, _ = run_fleet st ~tier:Oracle.Cache requests in
    check_int "bad requests skipped" k outcome.Fleet.skipped;
    check_int "good requests answered" 200 outcome.Fleet.queries;
    check_int "good networks served" 2 outcome.Fleet.networks;
    check_int "all quarantined" k (Store.stats st).Store.quarantined;
    (* Parked again, [verify] quarantines them and passes the others. *)
    List.iter (fun file -> ignore (park dir file)) bad;
    let st = Store.open_dir dir in
    let results = Store.verify st in
    List.iter
      (fun d -> check "bad fails verify" true (Result.is_error (List.assoc d results)))
      bad_digests;
    List.iter (fun d -> check "good verifies" true (Result.is_ok (List.assoc d results))) good;
    check_int "verify quarantined all" k (Store.stats st).Store.quarantined;
    ignore (Store.gc st)
  in
  (* Every file with a digest of its own in one batch and one verify
     pass; the mutants that share a digest one at a time. *)
  serve_and_verify own;
  List.iter (fun file -> serve_and_verify [ file ]) shared

let test_fleet_cache_tier_counters () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:2 in
  let st = Store.open_dir dir in
  let requests = Fleet.workload ~seed:9 st (Workload.Zipf 1.3) ~count:400 in
  let outcome, _ = run_fleet st ~tier:Oracle.Cache requests in
  (* Every answered query went through its network's clone cache. *)
  check_int "cache traffic covers the batch" outcome.Fleet.queries
    (outcome.Fleet.cache.Oracle.hits + outcome.Fleet.cache.Oracle.misses);
  check "store hit rate accounted" true
    (Fleet.store_hit_rate outcome > 0.0);
  let s = outcome.Fleet.store in
  check_int "store resolution covers the batch" 400 (s.Store.hits + s.Store.misses)

(* A label-tier answer takes well under a microsecond. Serve.run and
   Fleet.run time queries in nanosecond ticks, so a batch's p50 must
   clear 10 ns — below any query plus its clock read, and above the
   1 ns the latency histogram reports for its underflow bucket. *)
let test_label_latency_resolved () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:2 in
  let st = Store.open_dir dir in
  let requests = Fleet.workload ~seed:5 st Workload.Uniform ~count:2000 in
  let fleet, _ = run_fleet st ~tier:Oracle.Label requests in
  check "fleet p50 resolved" true (fleet.Fleet.latency.Serve.p50_us > 0.01);
  let d = List.hd (Store.digests st) in
  let serve = Serve.run (resident st d) ~tier:Oracle.Label (pairs_of requests d) in
  check "serve p50 resolved" true (serve.Serve.latency.Serve.p50_us > 0.01)

(* Fleet.certify: one entry per served network, in the outcome's
   order; every one certifies on a healthy store, and a network
   quarantined after the batch reports Error instead of raising. *)
let test_fleet_certify () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:3 in
  let st = Store.open_dir dir in
  let requests = Fleet.workload ~seed:8 st Workload.Uniform ~count:300 in
  let outcome, _ = run_fleet st ~tier:Oracle.Cache requests in
  let certs =
    Fleet.certify ~sample:20 ~bound:10.0 st ~tier:Oracle.Cache requests outcome
  in
  check "one entry per network, in order" true
    (List.map fst certs
    = List.map (fun (n : Fleet.net_outcome) -> n.Fleet.digest) outcome.Fleet.nets);
  List.iter
    (fun (_, cert) ->
      match cert with
      | Ok c ->
        check "correct" true
          (c.Serve.report.Ln_congest.Monitor.verdict = Ln_congest.Monitor.Correct);
        check_int "sample honoured" 20 c.Serve.sampled
      | Error why -> Alcotest.fail why)
    certs;
  (* Without [~bound], each network is held to its own promise. *)
  List.iter
    (fun (_, cert) ->
      match cert with
      | Ok c -> check "bound = artifact's promise" true (c.Serve.bound = 3.0)
      | Error why -> Alcotest.fail why)
    (Fleet.certify st ~tier:Oracle.Label requests outcome);
  let b = List.nth (Store.digests st) 1 in
  check "b was served" true (List.mem_assoc b certs);
  corrupt_file (Filename.concat dir (b ^ ".artifact"));
  let st = Store.open_dir dir in
  List.iter
    (fun (d, cert) ->
      check "quarantined network is Error, others Ok" (d = b) (Result.is_error cert))
    (Fleet.certify st ~tier:Oracle.Cache requests outcome)

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "add + ls" `Quick test_add_and_ls;
          Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity pins everything" `Quick
            test_capacity_pins_everything;
          Alcotest.test_case "corrupt artifact quarantined, not fatal" `Quick
            test_corrupt_artifact_quarantined_not_fatal;
          Alcotest.test_case "digest mismatch quarantined" `Quick
            test_digest_mismatch_quarantined;
          Alcotest.test_case "truncated artifact quarantined + revival" `Quick
            test_truncated_artifact_quarantined;
          Alcotest.test_case "reopen sees quarantine husks" `Quick
            test_reopen_sees_quarantine;
          Alcotest.test_case "words per store load" `Quick test_words_per_load;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "workload deterministic + skewed" `Quick
            test_workload_deterministic_and_skewed;
          Alcotest.test_case "fleet matches sequential serve" `Quick
            test_fleet_matches_sequential_serve;
          qcheck checksum_replay_prop;
          Alcotest.test_case "quarantined networks skipped" `Quick
            test_fleet_skips_quarantined;
          Alcotest.test_case "cache-tier per-domain counters" `Quick
            test_fleet_cache_tier_counters;
          Alcotest.test_case "unservable artifacts rejected + skipped" `Quick
            test_unservable_artifacts_quarantined;
          Alcotest.test_case "label-tier latency resolved below 1 us" `Quick
            test_label_latency_resolved;
          Alcotest.test_case "certify: per network, quarantine is Error" `Quick
            test_fleet_certify;
        ] );
    ]
