(* Benchmark + regression harness for the CONGEST engine.

   Three jobs, all in one binary so CI runs them together:

   1. Differential checker: every algorithm family in the library is
      run on both engine backends (the arena/active-set fast path and
      the list-based reference path) and the results — final outputs,
      engine statistics, round counts — must match exactly.

   2. Workload suite: BFS, tree broadcast, Borůvka MST and the light
      spanner on Erdős–Rényi and random-geometric graphs, reporting
      engine throughput (rounds/sec, messages/sec) and peak arena
      footprint from the engine's perf counters.

   3. Before/after headline: the BFS-on-ER workload timed on the
      reference ("before", the specification engine) and fast
      ("after") paths by best-of-blocks wall clock, and the resulting
      speedup.

   Output goes to BENCH_congest.json, printed by Obs_json. `--smoke`
   shrinks everything to n=256 so the whole binary finishes in a few
   seconds; the dune `bench-smoke` alias runs that mode as part of
   `dune runtest` and reads the file back with bench_diff. *)

open Lightnet

let spf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Benchmark graphs — the repo-wide generator conventions. *)

let er ~seed n =
  Gen.ensure_connected
    (Random.State.make [| seed; 101 |])
    (Gen.erdos_renyi (Random.State.make [| seed; 1 |]) ~n ~p:(8.0 /. float_of_int n) ())

let geo ~seed n =
  Gen.ensure_connected
    (Random.State.make [| seed; 102 |])
    (fst
       (Gen.random_geometric
          (Random.State.make [| seed; 2 |])
          ~n
          ~radius:(2.2 /. Float.sqrt (float_of_int n))
          ()))

(* ------------------------------------------------------------------ *)
(* Differential checker.

   Each family is a closure producing a textual digest of everything
   observable: the algorithm's output projected to plain data, engine
   round counts, message counts, ledger totals. Run under both
   backends, digests must be equal byte-for-byte. Floats are printed
   with %.17g, so any drift in message ordering or state evolution
   shows up. *)

let buf_stats b (st : Engine.stats) =
  Buffer.add_string b
    (spf "|stats r=%d m=%d w=%d mel=%d oc=%s dr=%d rt=%d" st.Engine.rounds
       st.Engine.messages st.Engine.total_words st.Engine.max_edge_load
       (match st.Engine.outcome with
       | Engine.Converged -> "c"
       | Engine.Round_limit -> "l")
       st.Engine.dropped_messages st.Engine.retransmissions)

let buf_float b f = Buffer.add_string b (spf "%.17g;" f)
let buf_int b i = Buffer.add_string b (spf "%d;" i)

let buf_ledger b l =
  Buffer.add_string b
    (spf "|ledger n=%d c=%d" (Ledger.native_total l) (Ledger.charged_total l))

let digest_of f =
  let b = Buffer.create 1024 in
  f b;
  Buffer.contents b

type check = { family : string; run : unit -> string }

let checks () =
  let g_er = er ~seed:7 48 in
  let g_geo = geo ~seed:9 40 in
  let tree_of g = fst (Bfs.tree g ~root:0) in
  [
    {
      family = "bfs";
      run =
        (fun () ->
          digest_of (fun b ->
              List.iter
                (fun g ->
                  let t, st = Bfs.tree g ~root:0 in
                  let { Tree.parent; parent_edge } = Tree.view t in
                  for v = 0 to Graph.n g - 1 do
                    buf_int b parent.(v);
                    if parent.(v) >= 0 then buf_int b parent_edge.(v)
                  done;
                  buf_stats b st)
                [ g_er; g_geo ]));
    };
    {
      family = "broadcast";
      run =
        (fun () ->
          digest_of (fun b ->
              let t = tree_of g_er in
              let all, st1 =
                Broadcast.all_to_all g_er ~tree:t
                  ~items:(Array.init (Graph.n g_er) (fun v -> if v mod 7 = 0 then [ v; v * 3 ] else []))
              in
              Array.iter (fun l -> List.iter (buf_int b) l) all;
              buf_stats b st1;
              let down, st2 = Broadcast.downcast g_er ~tree:t ~items:[ 1; 2; 3; 4 ] in
              Array.iter (fun l -> List.iter (buf_int b) l) down;
              buf_stats b st2;
              let gat, st3 =
                Broadcast.gather g_er ~tree:t
                  ~items:(Array.init (Graph.n g_er) (fun v -> if v mod 5 = 1 then [ v ] else []))
              in
              Array.iter (fun l -> List.iter (buf_int b) l) gat;
              buf_stats b st3));
    };
    {
      family = "exchange";
      run =
        (fun () ->
          digest_of (fun b ->
              let vals = Array.init (Graph.n g_er) (fun v -> (v * 13) mod 29) in
              let tbl, st = Exchange.ints g_er vals in
              Array.iter (fun l -> List.iter (fun (e, x) -> buf_int b e; buf_int b x) l) tbl;
              buf_stats b st;
              let fv = Array.init (Graph.n g_geo) (fun v -> float_of_int v *. 0.37) in
              let tbl2, st2 = Exchange.floats g_geo fv in
              Array.iter (fun l -> List.iter (fun (e, x) -> buf_int b e; buf_float b x) l) tbl2;
              buf_stats b st2));
    };
    {
      family = "keyed";
      run =
        (fun () ->
          digest_of (fun b ->
              let t = tree_of g_er in
              let tbl, st =
                Keyed.global_best g_er ~tree:t ~nkeys:8
                  ~local:(fun v -> [ (v mod 8, (v * 7) mod 31) ])
                  ~better:(fun a b -> a < b)
              in
              Array.iter (function None -> buf_int b (-1) | Some x -> buf_int b x) tbl;
              buf_stats b st));
    };
    {
      family = "boruvka-mst";
      run =
        (fun () ->
          digest_of (fun b ->
              List.iter
                (fun g ->
                  let d = Dist_mst.run g in
                  List.iter (buf_int b) d.Dist_mst.mst_edges;
                  buf_ledger b d.Dist_mst.ledger)
                [ g_er; g_geo ]));
    };
    {
      family = "euler-tour";
      run =
        (fun () ->
          digest_of (fun b ->
              let d = Dist_mst.run g_er in
              let tour = Euler_dist.run d ~rt:3 in
              buf_float b tour.Euler_dist.total;
              Array.iter
                (fun (a, z) ->
                  buf_float b a;
                  buf_float b z)
                tour.Euler_dist.interval;
              buf_ledger b d.Dist_mst.ledger));
    };
    {
      family = "bellman-ford";
      run =
        (fun () ->
          digest_of (fun b ->
              let r, st = Bellman_ford.sssp g_geo ~src:1 in
              Array.iter (buf_float b) r.Bellman_ford.dist;
              Array.iter (buf_int b) r.Bellman_ford.parent_edge;
              buf_stats b st));
    };
    {
      family = "hub-sssp";
      run =
        (fun () ->
          digest_of (fun b ->
              let bfs = tree_of g_er in
              let h =
                Hub_sssp.run ~rng:(Random.State.make [| 3; 4 |]) g_er ~bfs ~src:2
              in
              Array.iter (buf_float b) h.Hub_sssp.dist;
              List.iter (buf_int b) h.Hub_sssp.hubs;
              buf_ledger b h.Hub_sssp.ledger));
    };
    {
      family = "slt";
      run =
        (fun () ->
          digest_of (fun b ->
              let t =
                Slt.build ~rng:(Random.State.make [| 5; 6 |]) g_er ~rt:0 ~epsilon:0.5
              in
              List.iter (buf_int b) t.Slt.edges;
              List.iter (buf_int b) t.Slt.break_positions;
              buf_ledger b t.Slt.ledger));
    };
    {
      family = "baswana-sen";
      run =
        (fun () ->
          digest_of (fun b ->
              let before = Engine.snapshot_totals () in
              let s =
                Baswana_sen.build ~rng:(Random.State.make [| 8; 9 |]) ~k:3 g_er
              in
              List.iter (buf_int b) s.Baswana_sen.edges;
              buf_int b (Engine.totals_since before).Engine.rounds));
    };
    {
      family = "light-spanner";
      run =
        (fun () ->
          digest_of (fun b ->
              let sp =
                Light_spanner.build
                  ~rng:(Random.State.make [| 11; 12 |])
                  g_er ~k:2 ~epsilon:0.25
              in
              List.iter (buf_int b) sp.Light_spanner.edges;
              buf_int b sp.Light_spanner.light_bucket_edges;
              buf_int b sp.Light_spanner.bucket_edges;
              buf_ledger b sp.Light_spanner.ledger));
    };
    {
      family = "net";
      run =
        (fun () ->
          digest_of (fun b ->
              let bfs = tree_of g_geo in
              let nt =
                Net.build ~rng:(Random.State.make [| 13; 14 |]) g_geo ~bfs ~radius:0.4
                  ~delta:0.5
              in
              List.iter (buf_int b) nt.Net.points;
              buf_int b nt.Net.iterations;
              buf_ledger b nt.Net.ledger));
    };
    {
      family = "doubling-spanner";
      run =
        (fun () ->
          digest_of (fun b ->
              let sp =
                Doubling_spanner.build ~rng:(Random.State.make [| 15; 16 |]) g_geo
                  ~epsilon:0.5
              in
              List.iter (buf_int b) sp.Doubling_spanner.edges;
              buf_ledger b sp.Doubling_spanner.ledger));
    };
    {
      family = "mst-weight";
      run =
        (fun () ->
          digest_of (fun b ->
              let bfs = tree_of g_er in
              let e =
                Mst_weight.estimate ~rng:(Random.State.make [| 17; 18 |]) g_er ~bfs
                  ~alpha:2.0
              in
              List.iter
                (fun (s, c) ->
                  buf_float b s;
                  buf_int b c)
                e.Mst_weight.levels;
              buf_ledger b e.Mst_weight.ledger));
    };
    {
      family = "bellman-ford-multi";
      run =
        (fun () ->
          digest_of (fun b ->
              let tables, st =
                Bellman_ford.multi_source ~bound:0.5 g_geo ~srcs:[ 0; 13; 27; 38 ]
              in
              Array.iter
                (fun t ->
                  Hashtbl.fold
                    (fun src (d, e) () ->
                      buf_int b src;
                      buf_float b d;
                      buf_int b e)
                    (Bellman_ford.to_hashtbl t) ();
                  Buffer.add_char b '|')
                tables;
              buf_stats b st));
    };
    {
      family = "intervals";
      run =
        (fun () ->
          digest_of (fun b ->
              List.iter
                (fun g ->
                  let tour = Euler_dist.run (Dist_mst.run g) ~rt:0 in
                  let tt = Tour_table.make g tour in
                  let len = tt.Tour_table.len in
                  let rng = Random.State.make [| 19; 31 |] in
                  let centers =
                    Array.init len (fun j -> j = 0 || Random.State.int rng 5 = 0)
                  in
                  let is_center j = centers.(j) in
                  let values =
                    Array.init len (fun j ->
                        if Random.State.bool rng then Some (float_of_int (j * 7 mod 23))
                        else None)
                  in
                  let agg, st =
                    Intervals.aggregate g ~tt ~is_center
                      ~value:(fun j -> values.(j))
                      ~combine:Float.max
                  in
                  Array.iter (function None -> buf_int b (-1) | Some x -> buf_float b x) agg;
                  buf_stats b st;
                  let items =
                    Array.init len (fun j ->
                        List.init (Random.State.int rng 3) (fun i -> (j, i)))
                  in
                  let got, st2 = Intervals.gather g ~tt ~is_center ~items:(fun j -> items.(j)) in
                  Array.iter
                    (fun l ->
                      List.iter (fun (j, i) -> buf_int b j; buf_int b i) l;
                      Buffer.add_char b '|')
                    got;
                  buf_stats b st2)
                [ g_er; g_geo ]));
    };
    {
      family = "flood";
      run =
        (fun () ->
          digest_of (fun b ->
              List.iter
                (fun g ->
                  let got, st = Broadcast.flood g ~root:0 ~value:7 in
                  Array.iter (function None -> buf_int b (-1) | Some x -> buf_int b x) got;
                  buf_stats b st)
                [ g_er; g_geo ]));
    };
  ]

(* The fast digest is the baseline; the reference engine must
   reproduce it byte-for-byte. Under [--smoke] each family's fast
   digest is also written, as MD5 hex, to family_digests.txt, which the
   bench-smoke rule diffs against the committed
   bench/family_digests.expected: output drift across commits fails
   runtest even when both backends drift together. *)
let run_differential ~smoke =
  Printf.printf "differential checker: fast vs reference on every family\n%!";
  let failures = ref [] in
  let cs = checks () in
  let digests =
    List.map
      (fun c ->
        let fast = Engine.with_backend Engine.Fast c.run in
        if String.equal fast (Engine.with_backend Engine.Reference c.run) then
          Printf.printf "  [eq] %-16s (%d bytes)\n%!" c.family (String.length fast)
        else begin
          Printf.printf "  [MISMATCH] %s (reference)\n%!" c.family;
          failures := spf "%s/reference" c.family :: !failures
        end;
        spf "%s %s\n" c.family (Digest.to_hex (Digest.string fast)))
      cs
  in
  if smoke then
    Ln_obs.Atomic_file.write "family_digests.txt" (fun oc ->
        List.iter (output_string oc) digests);
  (List.length cs, List.rev !failures)

(* ------------------------------------------------------------------ *)
(* Pipeline counters (--smoke): the exact cost of whole build pipelines
   at perfbench's smoke sizes. The graphs and seeds are copies of
   perfbench/lnbench.ml's recipes, not imports, so that perfbench stays
   a standalone benchmark: the light spanner on RMAT scale 9; the SLT,
   then the doubling spanner, on geo n = 150; and the fleet's three
   light-spanner + SLT builds at n = 96. For each build,
   pipeline_counters.txt gets the engine totals it moved, every ledger
   entry and the MD5 of its sorted edge set. The fleet's networks are
   then packaged and stored as perfbench packages them, and its batch 0
   at seed 1 is served on the cache tier from a cold store LRU: the
   file gets the batch's store loads, evictions, hits and skipped
   requests and its checksum lines. The bench-smoke rule diffs the file
   against the committed bench/pipeline_counters.expected. *)

let pipeline_counters () =
  let instance = 7 in
  let rmat () =
    let rng = Random.State.make [| instance; 0x4a7 |] in
    Gen.ensure_connected rng (Gen.rmat rng ~scale:9 ~edge_factor:8 ())
  in
  let geo ~n salt =
    let rng = Random.State.make [| instance; 0x6e0; salt |] in
    fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ())
  in
  (* Each build returns its edges, its ledger and the whole result. *)
  let light ~seed g () =
    let sp = Light_spanner.build ~rng:(Random.State.make [| seed; 0x11 |]) g ~k:2 ~epsilon:0.25 in
    (sp.Light_spanner.edges, sp.Light_spanner.ledger, sp)
  in
  let slt ~seed g () =
    let t = Slt.build ~rng:(Random.State.make [| seed; 0x517 |]) g ~rt:0 ~epsilon:0.5 in
    (t.Slt.edges, t.Slt.ledger, t)
  in
  let doubling ~seed g () =
    let sp = Doubling_spanner.build ~rng:(Random.State.make [| seed; 0xdd |]) g ~epsilon:0.5 in
    (sp.Doubling_spanner.edges, sp.Doubling_spanner.ledger, sp)
  in
  let lines = ref [] in
  let add line = lines := line :: !lines in
  let record name build =
    let before = Engine.snapshot_totals () in
    let edges, ledger, result = build () in
    let p = Engine.totals_since before in
    add
      (spf "%s engine runs=%d rounds=%d messages=%d words=%d steps=%d" name p.Engine.runs
         p.Engine.rounds p.Engine.messages p.Engine.words p.Engine.steps);
    List.iter
      (fun (e : Ledger.entry) ->
        add
          (spf "%s ledger %s %s %d" name e.Ledger.label
             (match e.Ledger.kind with Ledger.Native -> "native" | Ledger.Charged -> "charged")
             e.Ledger.rounds))
      (Ledger.entries ledger);
    let sorted = List.sort Int.compare edges in
    add
      (spf "%s edges %d %s" name (List.length sorted)
         (Digest.to_hex (Digest.string (digest_of (fun b -> List.iter (buf_int b) sorted)))));
    result
  in
  let g = rmat () in
  ignore (record "spanner-rmat/light-spanner" (light ~seed:instance g));
  let g = geo ~n:150 0 in
  ignore (record "geo-slt-doubling/slt" (slt ~seed:instance g));
  ignore (record "geo-slt-doubling/doubling" (doubling ~seed:instance g));
  let dir = Filename.temp_file "lightnet_pipeline_store" "" in
  Sys.remove dir;
  let open_store () = Store.open_dir ~capacity:4 ~cache_capacity:64 dir in
  let st = open_store () in
  for i = 0 to 2 do
    let g = geo ~n:96 (i + 1) in
    let sp = record (spf "fleet-zipf/net-%d/light-spanner" i) (light ~seed:(instance + i) g) in
    let t = record (spf "fleet-zipf/net-%d/slt" i) (slt ~seed:(instance + i) g) in
    let art =
      Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:sp.Light_spanner.stretch_bound
        ~spanner_edges:sp.Light_spanner.edges
        ~slt_edges:(List.sort Int.compare t.Slt.edges)
        ~mst_edges:(Mst_seq.kruskal g)
        ~params:[ ("workload", "fleet-zipf"); ("net", string_of_int i) ]
        ()
    in
    let path = Filename.concat dir (spf "net-%d.tmp" i) in
    Artifact.save path art;
    (match Store.add st path with
    | Ok (_, `Added) -> ()
    | Ok (_, `Duplicate) -> failwith "pipeline counters: duplicate fleet network"
    | Error why -> failwith ("pipeline counters: Store.add failed: " ^ why));
    Sys.remove path
  done;
  let requests = Fleet.workload ~seed:8 ~net_skew:1.1 st (Workload.Zipf 1.1) ~count:500 in
  let o = Fleet.run (open_store ()) ~tier:Oracle.Cache requests in
  add
    (spf "fleet-zipf/batch-0 store loads=%d evictions=%d hits=%d skipped=%d"
       o.Fleet.store.Store.misses o.Fleet.store.Store.evictions o.Fleet.store.Store.hits
       o.Fleet.skipped);
  List.iter
    (fun l -> if l <> "" then add ("fleet-zipf/batch-0 checksum " ^ l))
    (String.split_on_char '\n' (Fleet.checksum_lines o));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Ln_obs.Atomic_file.write "pipeline_counters.txt" (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines));
  Printf.printf "pipeline counters: %d lines\n%!" (List.length !lines)

(* ------------------------------------------------------------------ *)
(* Chaos mode (--chaos): the fault-injection counterpart of the
   differential checker, plus a degradation sweep.

   1. Fault differential: every family above is driven through both
      backends under the same ambient fault plan (Fault.reset before
      each side so both replay the identical schedule). Digests —
      including the new dropped/retransmission counters and any
      exception an algorithm raises when chaos starves it — must match
      byte-for-byte. The plans avoid crash-stop failures: composite
      pipelines feed one phase's output into the next centrally, and a
      crashed node's garbage state would make the *plans*, not the
      engines, the thing under test. Crash semantics are covered by
      test_fault.ml and the sweep below.

   2. Degradation sweep: raw relaxing BFS vs its Reliable.lift'ed
      version across drop probabilities, each run certified by
      Monitor.bfs. Written to BENCH_faults.json: the raw protocol must
      go wrong beyond some drop-prob while the ARQ one stays correct,
      with the measured round/retransmission overhead.

   3. Recovery sweep: the same ARQ broadcast under crash-stop versus
      crash-recovery schedules of growing width. A node that crashes
      forever caps the verdict at degraded (its retries exhaust and
      the sender gives up); a node that recovers inside the ARQ retry
      budget must end correct, with the extra rounds/retransmissions
      as the measured price of riding out the outage. *)

let chaos_plans () =
  [
    Fault.make ~drop_prob:0.01 ~seed:101 ();
    Fault.make
      ~link_failures:
        [
          { Fault.edge = 3; from_round = 0; until_round = Some 30 };
          { Fault.edge = 17; from_round = 5; until_round = Some 25 };
        ]
      ~seed:202 ();
    Fault.make ~drop_prob:0.05 ~drop_until:50
      ~link_failures:[ { Fault.edge = 9; from_round = 2; until_round = Some 40 } ]
      ~seed:303 ();
  ]

(* As in [run_differential], the fast side is the baseline. Under
   [--smoke] each (plan seed, family) fast digest is also written, as
   MD5 hex, to chaos_digests.txt, which the chaos-smoke rule diffs
   against the committed bench/chaos_digests.expected: a drift under
   faults that both backends share fails runtest too. *)
let run_chaos_differential ~smoke =
  Printf.printf "chaos differential: fast vs reference under fault plans\n%!";
  let failures = ref [] in
  let digests = ref [] in
  let plans = chaos_plans () in
  List.iter
    (fun plan ->
      Printf.printf "  plan [%s]\n%!" (Fault.describe plan);
      List.iter
        (fun c ->
          let side backend =
            Fault.reset plan;
            Engine.with_backend backend (fun () ->
                Engine.with_faults ~max_rounds:50_000 plan (fun () ->
                    try c.run ()
                    with e -> "exn:" ^ Printexc.to_string e))
          in
          let fast = side Engine.Fast in
          if String.equal fast (side Engine.Reference) then
            Printf.printf "    [eq] %-16s (%d bytes%s)\n%!" c.family
              (String.length fast)
              (if String.length fast >= 4 && String.sub fast 0 4 = "exn:" then
                 ", starved"
               else "")
          else begin
            Printf.printf "    [MISMATCH] %s (reference)\n%!" c.family;
            failures :=
              spf "%s/reference@%d" c.family (Fault.seed plan) :: !failures
          end;
          digests :=
            spf "%d %s %s\n" (Fault.seed plan) c.family
              (Digest.to_hex (Digest.string fast))
            :: !digests)
        (checks ()))
    plans;
  if smoke then
    Ln_obs.Atomic_file.write "chaos_digests.txt" (fun oc ->
        List.iter (output_string oc) (List.rev !digests));
  (List.length !digests, List.rev !failures)

let sweep_row ~label ~drop_prob ~(stats : Engine.stats) ~verdict =
  Obs_json.Obj
    [
      ("protocol", Obs_json.Str label);
      ("drop_prob", Obs_json.Num drop_prob);
      ("rounds", Obs_json.Int stats.Engine.rounds);
      ("messages", Obs_json.Int stats.Engine.messages);
      ("words", Obs_json.Int stats.Engine.total_words);
      ("dropped", Obs_json.Int stats.Engine.dropped_messages);
      ("retransmissions", Obs_json.Int stats.Engine.retransmissions);
      ( "outcome",
        Obs_json.Str
          (match stats.Engine.outcome with
          | Engine.Converged -> "converged"
          | Engine.Round_limit -> "round-limit") );
      ("verdict", Obs_json.Str (Monitor.verdict_name verdict));
    ]

let run_sweep ~n =
  let g = er ~seed:21 n in
  let root = 0 in
  Printf.printf "degradation sweep: BFS on ER n=%d m=%d\n%!" n (Graph.m g);
  let rows = ref [] in
  let raw_wrong = ref false and reliable_all_correct = ref true in
  List.iter
    (fun drop_prob ->
      let plan seed = Fault.make ~drop_prob ~seed () in
      let raw_dist, raw_st =
        Engine.with_faults (plan 42) (fun () -> Bfs.layers g ~root)
      in
      let raw_v = (Monitor.bfs g (plan 42) ~root ~dist:raw_dist).verdict in
      let rel_dist, rel_st =
        Engine.with_faults (plan 42) (fun () -> Bfs.layers_reliable g ~root)
      in
      let rel_v = (Monitor.bfs g (plan 42) ~root ~dist:rel_dist).verdict in
      if raw_v <> Monitor.Correct then raw_wrong := true;
      if rel_v <> Monitor.Correct then reliable_all_correct := false;
      Printf.printf
        "  p=%.2f raw: %-7s %4d rounds %5d dropped | arq: %-7s %4d rounds %5d retrans\n%!"
        drop_prob (Monitor.verdict_name raw_v) raw_st.Engine.rounds
        raw_st.Engine.dropped_messages (Monitor.verdict_name rel_v)
        rel_st.Engine.rounds rel_st.Engine.retransmissions;
      rows := sweep_row ~label:"bfs-raw" ~drop_prob ~stats:raw_st ~verdict:raw_v :: !rows;
      rows :=
        sweep_row ~label:"bfs-reliable" ~drop_prob ~stats:rel_st ~verdict:rel_v
        :: !rows)
    [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ];
  Printf.printf
    "  raw degrades somewhere: %b; reliable correct everywhere: %b\n%!"
    !raw_wrong !reliable_all_correct;
  (List.rev !rows, !raw_wrong, !reliable_all_correct)

let recovery_row ~mode ~crashed ~(stats : Engine.stats) ~verdict ~delivered =
  Obs_json.Obj
    [
      ("mode", Obs_json.Str mode);
      ("crashed_nodes", Obs_json.Int crashed);
      ("rounds", Obs_json.Int stats.Engine.rounds);
      ("retransmissions", Obs_json.Int stats.Engine.retransmissions);
      ("delivered_fraction", Obs_json.Num delivered);
      ("verdict", Obs_json.Str (Monitor.verdict_name verdict));
    ]

let run_recovery_sweep ~n =
  let g = er ~seed:33 n in
  let root = 0 and value = 7 in
  Printf.printf "recovery sweep: ARQ broadcast on ER n=%d m=%d\n%!" n
    (Graph.m g);
  let rows = ref [] in
  let recover_all_correct = ref true and stop_all_degraded = ref true in
  let side ~mode ~plan ~crashed =
    let got, st =
      Engine.with_faults plan (fun () ->
          Broadcast.flood_reliable ~max_retries:64 g ~root ~value)
    in
    let v = (Monitor.broadcast g plan ~root ~value ~got).verdict in
    let delivered =
      float_of_int
        (Array.fold_left
           (fun acc x -> if x = Some value then acc + 1 else acc)
           0 got)
      /. float_of_int n
    in
    Printf.printf
      "  %-13s crashed=%d %-8s %4d rounds %5d retrans %5.1f%% delivered\n%!"
      mode crashed (Monitor.verdict_name v) st.Engine.rounds
      st.Engine.retransmissions (100.0 *. delivered);
    rows := recovery_row ~mode ~crashed ~stats:st ~verdict:v ~delivered :: !rows;
    v
  in
  List.iter
    (fun k ->
      (* k staggered outages on distinct non-root nodes; the recovery
         variant heals each window well inside the 64-retry budget. *)
      let windows =
        List.init k (fun i ->
            let node = 1 + (i * (n - 1) / k) in
            (node, 2 * i, (2 * i) + 12))
      in
      let plan ~recovers =
        Fault.make
          ~crashes:
            (List.map
               (fun (v, at, until) ->
                 let recover_round = if recovers then Some until else None in
                 { Fault.node = v; crash_round = at; recover_round })
               windows)
          ~seed:55 ()
      in
      let stop = plan ~recovers:false and recover = plan ~recovers:true in
      if side ~mode:"crash-stop" ~plan:stop ~crashed:k <> Monitor.Degraded then
        stop_all_degraded := false;
      if side ~mode:"crash-recover" ~plan:recover ~crashed:k <> Monitor.Correct
      then recover_all_correct := false)
    [ 1; 4; 8 ];
  Printf.printf
    "  crash-stop all degraded: %b; crash-recover all correct: %b\n%!"
    !stop_all_degraded !recover_all_correct;
  (List.rev !rows, !stop_all_degraded, !recover_all_correct)

let run_chaos ~smoke =
  let nchecks, failures = run_chaos_differential ~smoke in
  let sweep_n = if smoke then 64 else 512 in
  let rows, raw_wrong, reliable_ok = run_sweep ~n:sweep_n in
  let rec_rows, stop_degraded, recover_correct =
    run_recovery_sweep ~n:sweep_n
  in
  let json =
    Obs_json.Obj
      [
        ( "meta",
          Obs_json.Obj
            [
              ("mode", Obs_json.Str (if smoke then "smoke" else "full"));
              ("word_size", Obs_json.Int Bench_env.word_size);
              ("ocaml", Obs_json.Str Bench_env.ocaml_version);
              ("host_cores", Obs_json.Int (Bench_env.cores ()));
            ] );
        ( "fault_differential",
          Obs_json.Obj
            [
              ("plans", Obs_json.Int (List.length (chaos_plans ())));
              ("checks", Obs_json.Int nchecks);
              ("failures", Obs_json.Arr (List.map (fun f -> Obs_json.Str f) failures));
              ("equivalent", Obs_json.Bool (failures = []));
            ] );
        ( "degradation_sweep",
          Obs_json.Obj
            [
              ("n", Obs_json.Int sweep_n);
              ("raw_degrades", Obs_json.Bool raw_wrong);
              ("reliable_all_correct", Obs_json.Bool reliable_ok);
              ("rows", Obs_json.Arr rows);
            ] );
        ( "recovery_sweep",
          Obs_json.Obj
            [
              ("n", Obs_json.Int sweep_n);
              ("crash_stop_all_degraded", Obs_json.Bool stop_degraded);
              ("crash_recover_all_correct", Obs_json.Bool recover_correct);
              ("rows", Obs_json.Arr rec_rows);
            ] );
      ]
  in
  Ln_obs.Atomic_file.write "BENCH_faults.json" (fun oc ->
      output_string oc (Obs_json.to_text json ^ "\n"));
  Printf.printf "wrote BENCH_faults.json\n%!";
  if failures <> [] then begin
    Printf.printf "CHAOS DIFFERENTIAL FAILURES: %s\n%!"
      (String.concat ", " failures);
    exit 1
  end;
  if not reliable_ok then begin
    Printf.printf "RELIABLE BFS WENT WRONG UNDER THE SWEEP\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Workload suite. *)

let measure f =
  let before = Engine.snapshot_totals () in
  f ();
  Engine.totals_since before

let perf_json (p : Engine.perf) =
  Obs_json.Obj
    [
      ("rounds", Obs_json.Int p.Engine.rounds);
      ("messages", Obs_json.Int p.Engine.messages);
      ("words", Obs_json.Int p.Engine.words);
      ("engine_wall_s", Obs_json.Num p.Engine.wall);
      ("rounds_per_sec", Obs_json.Num (Engine.rounds_per_sec p));
      ("messages_per_sec", Obs_json.Num (Engine.messages_per_sec p));
      ("skip_ratio", Obs_json.Num (Engine.skip_ratio p));
      ("steps", Obs_json.Int p.Engine.steps);
      ("peak_arena_slots", Obs_json.Int p.Engine.arena_cap);
      (* 4 words per slot: from, edge, payload, link. *)
      ("peak_arena_words", Obs_json.Int (4 * p.Engine.arena_cap));
      ("arena_grows", Obs_json.Int p.Engine.arena_grows);
    ]

let workloads g =
  [
    ("bfs", fun () -> for _ = 1 to 10 do ignore (Bfs.tree g ~root:0) done);
    ( "broadcast",
      let tree = fst (Bfs.tree g ~root:0) in
      fun () -> ignore (Broadcast.downcast g ~tree ~items:(List.init 64 Fun.id)) );
    ("boruvka", fun () -> ignore (Dist_mst.run g));
    ( "spanner",
      fun () ->
        ignore
          (Light_spanner.build ~rng:(Random.State.make [| Graph.n g; 5 |]) g ~k:2
             ~epsilon:0.25) );
  ]

let run_suite sizes =
  let rows = ref [] in
  List.iter
    (fun (gname, mk) ->
      List.iter
        (fun n ->
          let g = mk n in
          List.iter
            (fun (fname, f) ->
              let p = measure f in
              Printf.printf "  %-3s n=%-6d %-9s %6d rounds %9d msgs %8.0f rounds/s %10.0f msgs/s skip %4.1f%%\n%!"
                gname n fname p.Engine.rounds p.Engine.messages
                (Engine.rounds_per_sec p) (Engine.messages_per_sec p)
                (100.0 *. Engine.skip_ratio p);
              rows :=
                Obs_json.Obj
                  (("graph", Obs_json.Str gname)
                   :: ("n", Obs_json.Int n)
                   :: ("m", Obs_json.Int (Graph.m g))
                   :: ("family", Obs_json.Str fname)
                   :: ("backend", Obs_json.Str "fast")
                   ::
                   (match perf_json p with Obs_json.Obj kv -> kv | _ -> []))
                :: !rows)
            (workloads g))
        sizes)
    [ ("er", fun n -> er ~seed:1 n); ("geo", fun n -> geo ~seed:1 n) ];
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Headline before/after: BFS on ER, reference vs fast. *)

let best_block ~blocks ~reps run =
  (* Best-of-blocks engine wall: robust against scheduler noise on a
     shared machine. Returns (best perf over one block). *)
  let best : Engine.perf option ref = ref None in
  for _ = 1 to blocks do
    let p = measure (fun () -> for _ = 1 to reps do run () done) in
    match !best with
    | Some b when b.Engine.wall <= p.Engine.wall -> ()
    | _ -> best := Some p
  done;
  Option.get !best

let run_headline ~n ~blocks ~reps =
  let g = er ~seed:1 n in
  Printf.printf "headline: BFS on ER n=%d m=%d (best of %d blocks x %d runs)\n%!" n
    (Graph.m g) blocks reps;
  let side backend label =
    Engine.with_backend backend (fun () ->
        (* Compact away the workload suite's garbage so both sides
           measure against the same (small) live heap. *)
        Gc.compact ();
        ignore (Bfs.tree g ~root:0) (* warm the scratch/caches *);
        let p = best_block ~blocks ~reps (fun () -> ignore (Bfs.tree g ~root:0)) in
        Printf.printf "  %-9s %8.0f rounds/s %11.0f msgs/s\n%!" label
          (Engine.rounds_per_sec p) (Engine.messages_per_sec p);
        p)
  in
  let ref_p = side Engine.Reference "reference" in
  let fast_p = side Engine.Fast "fast" in
  (* Engine wall is monotonic-clock based but can still round to zero
     on a degenerate (tiny) workload; a 0/0 here would poison the JSON
     with nan. Report 0 speedup instead. *)
  let ref_rps = Engine.rounds_per_sec ref_p in
  let speedup =
    if ref_rps > 0.0 then Engine.rounds_per_sec fast_p /. ref_rps else 0.0
  in
  Printf.printf "  speedup (rounds/sec, fast vs reference): %.2fx\n%!" speedup;
  let sidej p backend =
    Obs_json.Obj
      (("backend", Obs_json.Str backend)
       :: (match perf_json p with Obs_json.Obj kv -> kv | _ -> []))
  in
  Obs_json.Obj
    [
      ("workload", Obs_json.Str "bfs-er");
      ("n", Obs_json.Int n);
      ("m", Obs_json.Int (Graph.m g));
      ("blocks", Obs_json.Int blocks);
      ("runs_per_block", Obs_json.Int reps);
      ("before", sidej ref_p "reference");
      ("after", sidej fast_p "fast");
      ("speedup_rounds_per_sec", Obs_json.Num speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the headline fast-path BFS workload with a
   recorder installed (per-round probe + span bookkeeping live) vs the
   plain run. The recorder wraps only the measured blocks, so the
   event list stays bounded. *)

let run_telemetry_overhead ~n ~blocks ~reps =
  let g = er ~seed:1 n in
  Printf.printf "telemetry overhead: BFS on ER n=%d (fast backend)\n%!" n;
  Engine.with_backend Engine.Fast (fun () ->
      Gc.compact ();
      ignore (Bfs.tree g ~root:0);
      let off = best_block ~blocks ~reps (fun () -> ignore (Bfs.tree g ~root:0)) in
      let on_best = ref off in
      let (), trace =
        Telemetry.record (fun () ->
            on_best :=
              best_block ~blocks ~reps (fun () ->
                  Telemetry.span "bench-bfs" (fun () ->
                      ignore (Bfs.tree g ~root:0))))
      in
      let on = !on_best in
      let overhead_pct =
        if off.Engine.wall > 0.0 then
          100.0 *. ((on.Engine.wall -. off.Engine.wall) /. off.Engine.wall)
        else 0.0
      in
      Printf.printf
        "  off %.6fs/block  on %.6fs/block  overhead %+.1f%%  (%d events, %d rounds recorded)\n%!"
        off.Engine.wall on.Engine.wall overhead_pct
        (List.length trace.Telemetry.events)
        trace.Telemetry.rounds;
      Obs_json.Obj
        [
          ("workload", Obs_json.Str "bfs-er");
          ("n", Obs_json.Int n);
          ("blocks", Obs_json.Int blocks);
          ("runs_per_block", Obs_json.Int reps);
          ("telemetry_off", Obs_json.Obj (match perf_json off with Obs_json.Obj kv -> kv | _ -> []));
          ("telemetry_on", Obs_json.Obj (match perf_json on with Obs_json.Obj kv -> kv | _ -> []));
          ("events_recorded", Obs_json.Int (List.length trace.Telemetry.events));
          ("rounds_recorded", Obs_json.Int trace.Telemetry.rounds);
          ("overhead_pct_engine_wall", Obs_json.Num overhead_pct);
        ])

(* ------------------------------------------------------------------ *)
(* Metrics-registry overhead: the same headline workload with the
   live metrics registry enabled vs disabled. The engine instruments
   per *run* (finish_perf), not per round, so the "on" cost is a
   handful of counter adds per BFS; the "off" side pays one ref read.
   The acceptance gate is overhead <= 2% of engine wall. *)

let run_metrics_overhead ~n ~blocks ~reps =
  let g = er ~seed:1 n in
  Printf.printf "metrics overhead: BFS on ER n=%d (fast backend)\n%!" n;
  Engine.with_backend Engine.Fast (fun () ->
      Gc.compact ();
      ignore (Bfs.tree g ~root:0);
      let off = best_block ~blocks ~reps (fun () -> ignore (Bfs.tree g ~root:0)) in
      Metrics.set_on true;
      let on = best_block ~blocks ~reps (fun () -> ignore (Bfs.tree g ~root:0)) in
      let series = List.length (Metrics.snapshot ()) in
      Metrics.set_on false;
      Metrics.reset ();
      let overhead_pct =
        if off.Engine.wall > 0.0 then
          100.0 *. ((on.Engine.wall -. off.Engine.wall) /. off.Engine.wall)
        else 0.0
      in
      Printf.printf
        "  off %.6fs/block  on %.6fs/block  overhead %+.1f%%  (%d series live)\n%!"
        off.Engine.wall on.Engine.wall overhead_pct series;
      Obs_json.Obj
        [
          ("workload", Obs_json.Str "bfs-er");
          ("n", Obs_json.Int n);
          ("blocks", Obs_json.Int blocks);
          ("runs_per_block", Obs_json.Int reps);
          ("metrics_off", Obs_json.Obj (match perf_json off with Obs_json.Obj kv -> kv | _ -> []));
          ("metrics_on", Obs_json.Obj (match perf_json on with Obs_json.Obj kv -> kv | _ -> []));
          ("series_live", Obs_json.Int series);
          ("overhead_pct_engine_wall", Obs_json.Num overhead_pct);
        ])

(* ------------------------------------------------------------------ *)
(* Graph500-style RMAT section: the substrate numbers at n >= 10^6.

   Two measurements on one seeded RMAT graph:
   - per-phase build throughput: generator draws/s and streaming-
     constructor edges/s (the `of_edge_arrays` path: validate, sort,
     dedup, CSR fill);
   - BFS TEPS over sampled degree>0 sources (traversed edges =
     sum of degrees of reached vertices / 2, harmonic mean across
     sources, the Graph500 convention).

   Peak memory is reported as Gc live/top-heap words right after the
   build plus process peak RSS, the figures EXPERIMENTS.md's
   memory-ceiling methodology is stated in. *)

let run_rmat ~smoke =
  let scale = if smoke then 12 else 20 in
  let edge_factor = 16 in
  let teps_sources = if smoke then 8 else 64 in
  let n = 1 lsl scale in
  let drawn = edge_factor * n in
  Printf.printf "rmat: scale=%d edge_factor=%d (n=%d, %d draws)\n%!" scale
    edge_factor n drawn;
  let rng = Random.State.make [| 0x9a7500; scale |] in
  let t0 = Unix.gettimeofday () in
  let us, vs, ws = Gen.rmat_edges rng ~scale ~edge_factor () in
  let t_gen = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let g = Graph.of_edge_arrays ~n us vs ws in
  let t_build = Unix.gettimeofday () -. t0 in
  let m = Graph.m g in
  let live_after_build, top_after_build = Bench_env.heap_words () in
  Printf.printf
    "  gen %.2fs (%.3g draws/s)  build %.2fs (%.3g edges/s)  m=%d  live %.1f Mw\n%!"
    t_gen
    (float_of_int drawn /. t_gen)
    t_build
    (float_of_int drawn /. t_build)
    m
    (float_of_int live_after_build /. 1e6);
  (* TEPS: harmonic mean over sources = total edges / total time. *)
  let teps_runs = ref [] in
  let done_ = ref 0 and tries = ref 0 in
  while !done_ < teps_sources && !tries < 100 * teps_sources do
    incr tries;
    let s = Random.State.int rng n in
    if Graph.degree g s > 0 then begin
      let t0 = Unix.gettimeofday () in
      let dist = Paths.bfs_hops g s in
      let dt = Unix.gettimeofday () -. t0 in
      let e = ref 0 in
      for v = 0 to n - 1 do
        if dist.(v) >= 0 then e := !e + Graph.degree g v
      done;
      teps_runs := (float_of_int !e /. 2.0, dt) :: !teps_runs;
      incr done_
    end
  done;
  let total_edges = List.fold_left (fun a (e, _) -> a +. e) 0.0 !teps_runs in
  let total_time = List.fold_left (fun a (_, t) -> a +. t) 0.0 !teps_runs in
  let teps_harmonic = if total_time > 0.0 then total_edges /. total_time else 0.0 in
  Printf.printf "  bfs: %d sources, %.3g TEPS (harmonic mean)\n%!" !done_
    teps_harmonic;
  let live_end, top_end = Bench_env.heap_words () in
  Obs_json.Obj
    [
      ("scale", Obs_json.Int scale);
      ("edge_factor", Obs_json.Int edge_factor);
      ("n", Obs_json.Int n);
      ("edges_drawn", Obs_json.Int drawn);
      ("m", Obs_json.Int m);
      ( "build",
        Obs_json.Obj
          [
            ("gen_seconds", Obs_json.Num t_gen);
            ("gen_draws_per_sec", Obs_json.Num (float_of_int drawn /. t_gen));
            ("csr_seconds", Obs_json.Num t_build);
            ("csr_edges_per_sec", Obs_json.Num (float_of_int drawn /. t_build));
          ] );
      ( "bfs_teps",
        Obs_json.Obj
          [
            ("sources", Obs_json.Int !done_);
            ("teps_harmonic_mean", Obs_json.Num teps_harmonic);
            ("traversed_edges_total", Obs_json.Num total_edges);
            ("seconds_total", Obs_json.Num total_time);
          ] );
      ( "memory",
        Obs_json.Obj
          [
            ("live_words_after_build", Obs_json.Int live_after_build);
            ("top_heap_words_after_build", Obs_json.Int top_after_build);
            ("live_words_end", Obs_json.Int live_end);
            ("top_heap_words_end", Obs_json.Int top_end);
            ("peak_rss_kb", Obs_json.Int (Bench_env.peak_rss_kb ()));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* CONGEST engine at Graph500 scale: run_fast on raw RMAT draws
   (power-law degrees, hub inbox chains, no connectivity repair).

   Three workloads:
     - relaxing BFS at scales 16/18/20 (the headline: the engine
       itself at n = 10^6),
     - a max-id flood at the auxiliary scale — every vertex announces
       improvements, so rounds are dense and the direction-optimizing
       dense path carries the run,
     - Baswana–Sen (k=2) at the auxiliary scale — the paper pipeline's
       cluster-exchange pattern through the dispatching Engine.run. *)

let max_id_flood : (int, int) Engine.program =
  let open Engine in
  let announce ctx v = ctx_iter_neighbors ctx (fun edge _ -> ctx_send ctx ~via:edge v) in
  {
    name = "max-id-flood";
    words = (fun _ -> 1);
    init =
      (fun ctx ->
        announce ctx ctx.me;
        ctx.me);
    step =
      (fun ctx ~round:_ s ->
        let best = ref s in
        while ctx_inbox_next ctx do
          let x = ctx_inbox_payload ctx in
          if x > !best then best := x
        done;
        if !best > s then announce ctx !best;
        !best);
  }

let run_engine_rmat ~smoke =
  Printf.printf "engine at rmat scale (run_fast)\n%!";
  let edge_factor = 16 in
  let mk scale =
    let rng = Random.State.make [| 0x9a7501; scale |] in
    let n = 1 lsl scale in
    let us, vs, ws = Gen.rmat_edges rng ~scale ~edge_factor () in
    Graph.of_edge_arrays ~n us vs ws
  in
  let root_of g =
    let best = ref 0 in
    for v = 1 to Graph.n g - 1 do
      if Graph.degree g v > Graph.degree g !best then best := v
    done;
    !best
  in
  let perf_row ~label ~g ~wall (p : Engine.perf) =
    Printf.printf
      "  %-14s n=%d m=%d  %d rounds  %d msgs  %.0f rounds/s  %.3g msgs/s  skip %.1f%%  arena %d slots (%d grows)  %.2fs\n%!"
      label (Graph.n g) (Graph.m g) p.Engine.rounds p.Engine.messages
      (Engine.rounds_per_sec p) (Engine.messages_per_sec p)
      (100.0 *. Engine.skip_ratio p)
      p.Engine.arena_cap p.Engine.arena_grows wall;
    Obs_json.Obj
      [
        ("workload", Obs_json.Str label);
        ("n", Obs_json.Int (Graph.n g));
        ("m", Obs_json.Int (Graph.m g));
        ("rounds", Obs_json.Int p.Engine.rounds);
        ("messages", Obs_json.Int p.Engine.messages);
        ("rounds_per_sec", Obs_json.Num (Engine.rounds_per_sec p));
        ("messages_per_sec", Obs_json.Num (Engine.messages_per_sec p));
        ("skip_ratio", Obs_json.Num (Engine.skip_ratio p));
        ("peak_arena_slots", Obs_json.Int p.Engine.arena_cap);
        ("arena_grows", Obs_json.Int p.Engine.arena_grows);
        ("wall_seconds", Obs_json.Num wall);
        ("peak_rss_kb", Obs_json.Int (Bench_env.peak_rss_kb ()));
      ]
  in
  let bfs_scales = if smoke then [ 8; 10 ] else [ 16; 18; 20 ] in
  let aux_scale = if smoke then 8 else 16 in
  (* Auxiliary workloads first: each row's peak_rss_kb is the process
     high-water mark so far, so the order is part of the figures. *)
  let g_aux = mk aux_scale in
  let flood_row =
    let perf = Engine.create_perf () in
    let t0 = Unix.gettimeofday () in
    let _ = Engine.run_fast ~perf g_aux max_id_flood in
    perf_row
      ~label:(spf "flood@%d" aux_scale)
      ~g:g_aux
      ~wall:(Unix.gettimeofday () -. t0)
      perf
  in
  let spanner_row =
    let before = Engine.snapshot_totals () in
    let t0 = Unix.gettimeofday () in
    let sp =
      Baswana_sen.build ~rng:(Random.State.make [| 0xb5; aux_scale |]) ~k:2 g_aux
    in
    let wall = Unix.gettimeofday () -. t0 in
    let p = Engine.totals_since before in
    Printf.printf "  spanner@%d: %d edges kept, %d native rounds\n%!" aux_scale
      (List.length sp.Baswana_sen.edges) p.Engine.rounds;
    perf_row ~label:(spf "baswana-sen@%d" aux_scale) ~g:g_aux ~wall p
  in
  let bfs_rows =
    List.map
      (fun scale ->
        let g = mk scale in
        let root = root_of g in
        let perf = Engine.create_perf () in
        let t0 = Unix.gettimeofday () in
        let _ = Engine.run_fast ~perf g (Bfs.relaxing_program ~root) in
        let wall = Unix.gettimeofday () -. t0 in
        perf_row ~label:(spf "bfs@%d" scale) ~g ~wall perf)
      bfs_scales
  in
  Obs_json.Obj
    [
      ("edge_factor", Obs_json.Int edge_factor);
      ("bfs", Obs_json.Arr bfs_rows);
      ("flood", flood_row);
      ("spanner", spanner_row);
    ]

(* Host facts every BENCH_*.json header carries (PR 6 bench hygiene):
   single-core numbers are meaningless later without the core count,
   and peak RSS anchors the memory-ceiling methodology. *)
let meta_json ~mode =
  Obs_json.Obj
    [
      ("mode", Obs_json.Str mode);
      ("word_size", Obs_json.Int Bench_env.word_size);
      ("ocaml", Obs_json.Str Bench_env.ocaml_version);
      ("host_cores", Obs_json.Int (Bench_env.cores ()));
      ("peak_rss_kb", Obs_json.Int (Bench_env.peak_rss_kb ()));
    ]

(* ------------------------------------------------------------------ *)

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 && arg <> "--smoke" && arg <> "--chaos" then begin
        Printf.eprintf
          "engine_bench: unknown argument %s\nusage: %s [--smoke] [--chaos]\n"
          arg Sys.argv.(0);
        exit 2
      end)
    Sys.argv;
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  if Array.exists (String.equal "--chaos") Sys.argv then begin
    Printf.printf "engine_bench (chaos %s mode)\n%!"
      (if smoke then "smoke" else "full");
    run_chaos ~smoke;
    exit 0
  end;
  let sizes = if smoke then [ 256 ] else [ 1024; 4096; 16384 ] in
  let headline_n = if smoke then 256 else 16384 in
  let blocks = if smoke then 4 else 8 in
  let reps = 5 in
  Printf.printf "engine_bench (%s mode)\n%!" (if smoke then "smoke" else "full");
  let nchecks, failures = run_differential ~smoke in
  if smoke then pipeline_counters ();
  Printf.printf "workload suite (fast backend)\n%!";
  let suite = run_suite sizes in
  let headline = run_headline ~n:headline_n ~blocks ~reps in
  let telemetry = run_telemetry_overhead ~n:headline_n ~blocks ~reps in
  let metrics = run_metrics_overhead ~n:headline_n ~blocks ~reps in
  let rmat = run_rmat ~smoke in
  let engine_rmat = run_engine_rmat ~smoke in
  let json =
    Obs_json.Obj
      [
        ("meta", meta_json ~mode:(if smoke then "smoke" else "full"));
        ( "differential",
          Obs_json.Obj
            [
              ("checks", Obs_json.Int nchecks);
              ("failures", Obs_json.Arr (List.map (fun f -> Obs_json.Str f) failures));
              ("equivalent", Obs_json.Bool (failures = []));
            ] );
        ("workloads", Obs_json.Arr suite);
        ("headline", headline);
        ("rmat", rmat);
        ("engine_rmat", engine_rmat);
        ("telemetry_overhead", telemetry);
        ("metrics_overhead", metrics);
      ]
  in
  Ln_obs.Atomic_file.write "BENCH_congest.json" (fun oc ->
      output_string oc (Obs_json.to_text json ^ "\n"));
  Printf.printf "wrote BENCH_congest.json\n%!";
  if failures <> [] then begin
    Printf.printf "DIFFERENTIAL FAILURES: %s\n%!" (String.concat ", " failures);
    exit 1
  end
