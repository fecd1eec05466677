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
      reference ("before", the seed engine) and fast ("after") paths —
      best-of-blocks wall clock plus a Bechamel per-run estimate — and
      the resulting speedup.

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
                  for v = 0 to Graph.n g - 1 do
                    match Tree.parent t v with
                    | None -> buf_int b (-1)
                    | Some (p, e) ->
                      buf_int b p;
                      buf_int b e
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
      family = "convergecast";
      run =
        (fun () ->
          digest_of (fun b ->
              let t = tree_of g_geo in
              let total, st =
                Convergecast.aggregate g_geo ~tree:t ~value:(fun v -> v * v) ~combine:( + )
              in
              buf_int b total;
              buf_stats b st;
              let mx, st2 =
                Convergecast.aggregate_all g_geo ~tree:t ~value:Fun.id ~combine:max
              in
              buf_int b mx;
              buf_stats b st2));
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
              let s =
                Baswana_sen.build ~rng:(Random.State.make [| 8; 9 |]) ~k:3 g_er
              in
              List.iter (buf_int b) s.Baswana_sen.edges;
              buf_int b s.Baswana_sen.rounds));
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

let run_chaos_differential () =
  Printf.printf "chaos differential: fast vs reference under fault plans\n%!";
  let failures = ref [] in
  let plans = chaos_plans () in
  let total = ref 0 in
  List.iter
    (fun plan ->
      Printf.printf "  plan [%s]\n%!" (Fault.describe plan);
      List.iter
        (fun c ->
          incr total;
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
          end)
        (checks ()))
    plans;
  (!total, List.rev !failures)

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
  let nchecks, failures = run_chaos_differential () in
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
              ("peak_rss_kb", Obs_json.Int (Bench_env.peak_rss_kb ()));
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

let bechamel_ns ~quota name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) res [] with
  | [ v ] -> (
    match Analyze.OLS.estimates v with Some [ ns ] -> ns | _ -> nan)
  | _ -> nan

let run_headline ~n ~blocks ~reps ~quota =
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
        let ns = bechamel_ns ~quota label (fun () -> ignore (Bfs.tree g ~root:0)) in
        Printf.printf "  %-9s %8.0f rounds/s %11.0f msgs/s %12.0f ns/run (bechamel)\n%!"
          label (Engine.rounds_per_sec p) (Engine.messages_per_sec p) ns;
        (p, ns))
  in
  let ref_p, ref_ns = side Engine.Reference "reference" in
  let fast_p, fast_ns = side Engine.Fast "fast" in
  (* Engine wall is monotonic-clock based but can still round to zero
     on a degenerate (tiny) workload; a 0/0 here would poison the JSON
     with nan. Report 0 speedup instead. *)
  let ref_rps = Engine.rounds_per_sec ref_p in
  let speedup =
    if ref_rps > 0.0 then Engine.rounds_per_sec fast_p /. ref_rps else 0.0
  in
  Printf.printf "  speedup (rounds/sec, fast vs reference): %.2fx\n%!" speedup;
  let sidej (p, ns) backend =
    Obs_json.Obj
      (("backend", Obs_json.Str backend)
       :: ("bechamel_ns_per_run", Obs_json.Num ns)
       :: (match perf_json p with Obs_json.Obj kv -> kv | _ -> []))
  in
  Obs_json.Obj
    [
      ("workload", Obs_json.Str "bfs-er");
      ("n", Obs_json.Int n);
      ("m", Obs_json.Int (Graph.m g));
      ("blocks", Obs_json.Int blocks);
      ("runs_per_block", Obs_json.Int reps);
      ("before", sidej (ref_p, ref_ns) "reference");
      ("after", sidej (fast_p, fast_ns) "fast");
      ("speedup_rounds_per_sec", Obs_json.Num speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the headline fast-path BFS workload with a
   recorder installed (per-round probe + span bookkeeping live) vs the
   plain run. The recorder wraps only the measured block, not the
   bechamel loop, so the event list stays bounded. The "off" side is
   what the headline regression gate compares against. *)

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

   Three measurements on one seeded RMAT graph:
   - per-phase build throughput: generator draws/s and streaming-
     constructor edges/s (the `of_edge_arrays` path: validate, sort,
     dedup, CSR fill);
   - BFS TEPS over sampled degree>0 sources (traversed edges =
     sum of degrees of reached vertices / 2, harmonic mean across
     sources, the Graph500 convention);
   - Dijkstra before/after: the same SSSP once against a boxed
     tuple-array adjacency (built before timing, so row
     materialization is excluded) and once through the
     allocation-free `Graph.iter_neighbors` port in Paths — the
     substrate speedup the CSR move is supposed to buy.

   Peak memory is reported as Gc live/top-heap words right after the
   build plus process peak RSS, the figures EXPERIMENTS.md's
   memory-ceiling methodology is stated in. *)

(* The boxed [(edge_id, neighbor)] row per vertex that the graph
   carried before the CSR move: the "before" representation of the
   Dijkstra comparison and the neighbor-residency figure. *)
let tuple_rows g =
  Array.init (Graph.n g) (fun v ->
      Array.of_list
        (List.rev (Graph.fold_neighbors g v (fun acc id u -> (id, u) :: acc) [])))

(* The "before" side of the Dijkstra comparison: the pre-CSR
   [Paths.dijkstra_core] loop on today's flat [Pqueue] (the heap both
   sides share) — boxed tuple rows, default [edge_ok] closure, a
   [Graph.weight] call per edge, same [dist]/[parent_edge]/[source]
   outputs the ported code produces. *)
let dijkstra_legacy ?(bound = infinity) ?(edge_ok = fun _ -> true) rows g src =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let parent_edge = Array.make n (-1) in
  let source = Array.make n (-1) in
  let settled = Array.make n false in
  let q = Pqueue.create () in
  dist.(src) <- 0.0;
  source.(src) <- src;
  Pqueue.push q 0.0 src;
  let rec loop () =
    if not (Pqueue.is_empty q) then begin
      let d = Pqueue.min_prio q in
      let v = Pqueue.pop_min q in
      if not settled.(v) then begin
        settled.(v) <- true;
        if d <= bound then
          Array.iter
            (fun (id, u) ->
              if edge_ok id && not settled.(u) then begin
                let nd = d +. Graph.weight g id in
                if nd < dist.(u) && nd <= bound then begin
                  dist.(u) <- nd;
                  parent_edge.(u) <- id;
                  source.(u) <- source.(v);
                  Pqueue.push q nd u
                end
              end)
            rows.(v)
      end;
      loop ()
    end
  in
  loop ();
  ignore parent_edge;
  dist

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
  (* Dijkstra before/after on the same graph: the pre-CSR loop
     (dijkstra_legacy above) against today's [Paths.dijkstra]. Order
     matters for fairness — the CSR side runs first, against the fresh
     flat-only heap, then the tuple rows are built (the old
     representation always carried them) and the legacy side runs on
     its steady state. [Gc.compact] before every timed rep keeps GC
     phase noise out of the best-of; sum of per-source bests is
     reported so both sides cover the same work. *)
  let dijkstra_sources =
    let rec pick acc k =
      if k = 0 then acc
      else
        let s = Random.State.int rng n in
        if Graph.degree g s > 0 then pick (s :: acc) (k - 1) else pick acc k
    in
    pick [] 3
  in
  let time_sum f =
    let total = ref 0.0 in
    List.iter
      (fun s ->
        let best = ref infinity in
        for _ = 1 to 4 do
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          ignore (f g s);
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt
        done;
        total := !total +. !best)
      dijkstra_sources;
    !total
  in
  let t_csr = time_sum (fun g s -> (Paths.dijkstra g s).Paths.dist) in
  let rows = tuple_rows g in
  let t_tuple = time_sum (dijkstra_legacy rows) in
  let speedup = t_tuple /. t_csr in
  Printf.printf
    "  dijkstra: legacy tuple-array %.3fs  csr %.3fs  speedup %.2fx\n%!"
    t_tuple t_csr speedup;
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
      ( "dijkstra_before_after",
        Obs_json.Obj
          [
            ("sources", Obs_json.Int (List.length dijkstra_sources));
            ("legacy_tuple_array_seconds", Obs_json.Num t_tuple);
            ("csr_seconds", Obs_json.Num t_csr);
            ("speedup", Obs_json.Num speedup);
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
       cluster-exchange pattern through the dispatching Engine.run.

   Also measured here, because they are the point of the flat-ctx
   rewrite:
     - neighbor-view residency: the flat ctx aliases the graph's CSR
       columns (a fixed-size record), while the old tuple view paid
       ~8m + 2n boxed words; we force the deprecated rows on the
       largest graph and report both deltas and their ratio,
     - warm scratch acquisition: the stamp guards removed four O(n)
       Array.fills per acquire; we time exactly that removed work at
       the largest n next to a trivial engine run on the same graph. *)

let max_id_flood : (int, int) Engine.program =
  let open Engine in
  let announce ctx v =
    let msg = v in
    List.rev
      (ctx_fold_neighbors ctx (fun acc edge _ -> { via = edge; msg } :: acc) [])
  in
  of_lists
    {
      name = "max-id-flood";
      words = (fun _ -> 1);
      init = (fun ctx -> (ctx.me, announce ctx ctx.me));
      step =
        (fun ctx ~round:_ s inbox ->
          let best =
            List.fold_left
              (fun acc (r : int received) -> if r.payload > acc then r.payload else acc)
              s inbox
          in
          if best > s then (best, announce ctx best, false) else (s, [], false));
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
  (* Auxiliary workloads first so the largest BFS graph is the live one
     when the memory section below measures it. *)
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
      (List.length sp.Baswana_sen.edges) sp.Baswana_sen.rounds;
    perf_row ~label:(spf "baswana-sen@%d" aux_scale) ~g:g_aux ~wall p
  in
  let bfs_rows, g_last, root_last =
    List.fold_left
      (fun (rows, _, _) scale ->
        let g = mk scale in
        let root = root_of g in
        let perf = Engine.create_perf () in
        let t0 = Unix.gettimeofday () in
        let _ = Engine.run_fast ~perf g (Engine.of_lists (Bfs.relaxing_program ~root)) in
        let wall = Unix.gettimeofday () -. t0 in
        let row = perf_row ~label:(spf "bfs@%d" scale) ~g ~wall perf in
        (row :: rows, Some g, root))
      ([], None, 0) bfs_scales
  in
  let bfs_rows = List.rev bfs_rows in
  let g_big = Option.get g_last in
  let n_big = Graph.n g_big in
  (* Neighbor-view residency, flat ctx vs boxed tuple rows. *)
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = live () in
  let _ = Engine.run_fast g_big (Engine.of_lists (Bfs.relaxing_program ~root:root_last)) in
  let live_flat = live () in
  let flat_delta = max 0 (live_flat - live0) in
  let rows = tuple_rows g_big in
  let live_tuple = live () in
  ignore (Sys.opaque_identity rows);
  let tuple_delta = max 0 (live_tuple - live_flat) in
  let ratio = float_of_int tuple_delta /. float_of_int (max 1 flat_delta) in
  Printf.printf
    "  neighbor view @ n=%d: flat ctx +%d words resident, tuple rows +%d words (%.3g Mw) — %.0fx\n%!"
    n_big flat_delta tuple_delta
    (float_of_int tuple_delta /. 1e6)
    ratio;
  (* Warm scratch acquisition: the stamp guards deleted four O(n)
     Array.fills per acquire. Time that removed work directly, next to
     a trivial engine run (whose init pass is O(n) by contract — every
     node starts active — so the fills were a constant factor, not the
     asymptote; they were still ~half the setup cost of a short run). *)
  let fills = Array.make n_big 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 4 do
    Array.fill fills 0 n_big 0
  done;
  let t_fills = Unix.gettimeofday () -. t0 in
  let trivial : (unit, unit) Engine.program =
    { name = "noop"; words = (fun () -> 1); init = ignore; step = (fun _ ~round:_ () -> ()) }
  in
  let _ = Engine.run_fast g_big trivial (* warm *) in
  let t0 = Unix.gettimeofday () in
  let _ = Engine.run_fast g_big trivial in
  let t_trivial = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  warm acquire @ n=%d: removed 4x Array.fill = %.4fs; trivial warm run now %.4fs\n%!"
    n_big t_fills t_trivial;
  Obs_json.Obj
    [
      ("edge_factor", Obs_json.Int edge_factor);
      ("bfs", Obs_json.Arr bfs_rows);
      ("flood", flood_row);
      ("spanner", spanner_row);
      ( "memory",
        Obs_json.Obj
          [
            ("n", Obs_json.Int n_big);
            ("flat_ctx_resident_words", Obs_json.Int flat_delta);
            ("tuple_rows_resident_words", Obs_json.Int tuple_delta);
            ("tuple_over_flat_ratio", Obs_json.Num ratio);
          ] );
      ( "warm_acquire",
        Obs_json.Obj
          [
            ("n", Obs_json.Int n_big);
            ("removed_fills_seconds", Obs_json.Num t_fills);
            ("trivial_warm_run_seconds", Obs_json.Num t_trivial);
          ] );
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
      if
        i > 0 && arg <> "--smoke" && arg <> "--headline-only"
        && arg <> "--chaos"
      then begin
        Printf.eprintf
          "engine_bench: unknown argument %s\nusage: %s [--smoke] [--headline-only] [--chaos]\n"
          arg Sys.argv.(0);
        exit 2
      end)
    Sys.argv;
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  let headline_only = Array.exists (String.equal "--headline-only") Sys.argv in
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
  let quota = if smoke then 0.2 else 1.0 in
  Printf.printf "engine_bench (%s mode)\n%!" (if smoke then "smoke" else "full");
  let nchecks, failures =
    if headline_only then (0, []) else run_differential ~smoke
  in
  let suite =
    if headline_only then []
    else begin
      Printf.printf "workload suite (fast backend)\n%!";
      run_suite sizes
    end
  in
  let headline = run_headline ~n:headline_n ~blocks ~reps ~quota in
  let telemetry = run_telemetry_overhead ~n:headline_n ~blocks ~reps in
  let metrics = run_metrics_overhead ~n:headline_n ~blocks ~reps in
  let rmat = if headline_only then Obs_json.Obj [] else run_rmat ~smoke in
  let engine_rmat =
    if headline_only then Obs_json.Obj [] else run_engine_rmat ~smoke
  in
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
