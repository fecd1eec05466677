(* Chaos-layer tests.

   1. The differential guarantee extends to faulty executions: under a
      shared deterministic fault plan, both engine backends produce
      byte-identical states, stats, fault counters and observer call
      sequences on randomized programs/graphs/plans.
   2. The ARQ combinator actually restores correctness: a Reliable.lift'ed
      relaxing BFS under drop-prob <= 0.3 converges to the exact
      fault-free layers.
   3. Unit coverage for crash-stop semantics, link-failure windows,
      ambient plans, monitor verdicts, replayability and the
      no-spurious-retransmit guarantee. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Paths = Ln_graph.Paths
module Engine = Ln_congest.Engine
module Fault = Ln_congest.Fault
module Reliable = Ln_congest.Reliable
module Monitor = Ln_congest.Monitor
module Ledger = Ln_congest.Ledger
module Bfs = Ln_prim.Bfs
module Broadcast = Ln_prim.Broadcast

(* Same deterministic mixer as test_engine_diff: programs must be pure
   functions of the seed for a two-backend comparison to be fair. *)
let mix a b c d =
  let h = ref (a * 0x9E3779B1) in
  h := (!h lxor (b * 0x85EBCA6B)) * 0xC2B2AE35;
  h := (!h lxor (c * 0x27D4EB2F)) * 0x165667B1;
  h := !h lxor (d * 0x9E3779B1);
  h := !h lxor (!h lsr 15);
  abs !h

let flood_program ~seed ~ttl ~word_cap : (int, int) Engine.program =
  let open Engine in
  let payload_of ~me ~round ~edge = mix seed me round edge mod 1000 in
  let sends ctx ~round ~state =
    ctx_iter_neighbors ctx (fun edge _ ->
        if mix seed (ctx.me + state) round edge mod 3 <> 0 then
          ctx_send ctx ~via:edge (payload_of ~me:ctx.me ~round ~edge))
  in
  {
    name = "rand-flood";
    words = (fun m -> 1 + (abs m mod word_cap));
    init =
      (fun ctx ->
        sends ctx ~round:0 ~state:0;
        ctx.me);
    step =
      (fun ctx ~round s ->
        let s = ref s in
        while ctx_inbox_next ctx do
          s := (!s * 31) + (ctx_inbox_from ctx * 7) + ctx_inbox_payload ctx + ctx_inbox_edge ctx
        done;
        let s = !s land 0xFFFFFF in
        if round <= ttl then begin
          sends ctx ~round ~state:s;
          if round < ttl then ctx_stay_active ctx
        end;
        s);
  }

(* A crash-stop: [node] halts at [round] and never recovers. *)
let crash_stop node round =
  { Fault.node; crash_round = round; recover_round = None }

type event = { round : int; from : int; dest : int; words : int }

let record_observer events ~round ~from ~dest ~words =
  events := { round; from; dest; words } :: !events

let graph_of ~n ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  let p = 0.05 +. (float_of_int (seed mod 7) /. 10.0) in
  Gen.erdos_renyi rng ~n ~p ()

(* A seed-derived chaos plan exercising all three fault kinds. *)
let plan_of g ~seed =
  let n = Graph.n g and m = Graph.m g in
  let drop_prob = float_of_int (seed mod 4) /. 10.0 in
  let crashes =
    if seed mod 3 = 0 then
      [ crash_stop (mix seed 1 2 3 mod n) (mix seed 4 5 6 mod 8) ]
    else []
  in
  let link_failures =
    if m > 0 && seed mod 2 = 0 then
      [
        { Fault.edge = mix seed 7 8 9 mod m; from_round = 1; until_round = None };
        {
          Fault.edge = mix seed 10 11 12 mod m;
          from_round = 0;
          until_round = Some (1 + (seed mod 5));
        };
      ]
    else []
  in
  (* Crash-recovery windows land on a different seed class than the
     crash-stops, so the sample mixes permanent and healing crashes. *)
  let crash_windows =
    if seed mod 3 = 1 then
      let at = mix seed 13 14 15 mod 6 in
      [
        {
          Fault.node = mix seed 16 17 18 mod n;
          crash_round = at;
          recover_round = Some (at + 1 + (mix seed 19 20 21 mod 8));
        };
      ]
    else []
  in
  Fault.make ~drop_prob ~link_failures ~crashes:(crashes @ crash_windows)
    ~seed ()

let prop_differential_under_faults =
  QCheck2.Test.make
    ~name:"fast and reference engines agree under fault plans" ~count:200
    QCheck2.Gen.(triple (int_range 2 50) (int_range 0 100_000) (int_range 0 10))
    (fun (n, seed, ttl) ->
      let g = graph_of ~n ~seed in
      let program = flood_program ~seed ~ttl ~word_cap:4 in
      let plan = plan_of g ~seed in
      let ev_fast = ref [] and ev_ref = ref [] in
      Fault.reset plan;
      let s_fast, st_fast =
        Engine.with_faults plan (fun () ->
            Engine.with_tap ~message:(record_observer ev_fast) (fun () ->
                Engine.run_fast g program))
      in
      let c_fast = Fault.counts plan in
      Fault.reset plan;
      let s_ref, st_ref =
        Engine.with_faults plan (fun () ->
            Engine.with_tap ~message:(record_observer ev_ref) (fun () ->
                Engine.run_reference g program))
      in
      let c_ref = Fault.counts plan in
      s_fast = s_ref && st_fast = st_ref && !ev_fast = !ev_ref
      && c_fast = c_ref
      && st_fast.dropped_messages = Fault.total c_fast)

let prop_reliable_bfs_exact_layers =
  QCheck2.Test.make
    ~name:"Reliable.lift'ed BFS converges to fault-free layers (drop <= 0.3)"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 2 40) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, tenths) ->
      let rng = Random.State.make [| seed; 23 |] in
      let g =
        Gen.ensure_connected rng (Gen.erdos_renyi rng ~n ~p:0.1 ())
      in
      let root = seed mod n in
      let truth = Paths.bfs_hops g root in
      let plan =
        Fault.make ~drop_prob:(float_of_int tenths /. 10.0) ~seed ()
      in
      let dist, stats =
        Engine.with_faults plan (fun () -> Bfs.layers_reliable g ~root)
      in
      dist = truth && stats.outcome = Engine.Converged)

(* Crash-stops at rounds 1-8, no drops. A node that relayed before it
   crashed can leave claims shorter than the surviving subgraph's, so
   raw and reliable BFS read correct or degraded, never wrong. Three
   corruptions of the raw claims at a reachable non-root survivor must
   read wrong: a claim above its surviving distance, a claim of -1, and
   a claim lowered to at most every neighbour's. *)
let prop_bfs_crash_stops_never_wrong =
  QCheck2.Test.make ~name:"Monitor.bfs: crash-stops at rounds 1-8 never read wrong"
    ~count:100
    QCheck2.Gen.(triple (int_range 4 40) (int_range 0 100_000) (int_range 1 5))
    (fun (n, seed, k) ->
      let rng = Random.State.make [| seed; 29 |] in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng ~n ~p:0.12 ()) in
      let root = 0 in
      let crashes =
        List.sort_uniq compare (List.init k (fun _ -> 1 + Random.State.int rng (n - 1)))
        |> List.map (fun v -> crash_stop v (1 + Random.State.int rng 8))
      in
      let plan = Fault.make ~crashes ~seed () in
      let verdict dist = (Monitor.bfs g plan ~root ~dist).verdict in
      let raw, _ = Engine.with_faults plan (fun () -> Bfs.layers g ~root) in
      Fault.reset plan;
      let reliable, _ = Engine.with_faults plan (fun () -> Bfs.layers_reliable g ~root) in
      let surv = Monitor.surviving_hops g plan ~root in
      let wrong_after mutate =
        let dist = Array.copy raw in
        mutate dist;
        verdict dist = Monitor.Wrong
      in
      let lowered v dist =
        let lowest = ref max_int in
        Graph.iter_neighbors g v (fun _ u ->
            if raw.(u) >= 0 then lowest := min !lowest raw.(u));
        dist.(v) <- max 0 (!lowest - 1)
      in
      let targets = List.filter (fun v -> surv.(v) > 0) (List.init n Fun.id) in
      verdict raw <> Monitor.Wrong
      && verdict reliable <> Monitor.Wrong
      &&
      match targets with
      | [] -> true
      | _ ->
        let v = List.nth targets (seed mod List.length targets) in
        wrong_after (fun d -> d.(v) <- surv.(v) + 1)
        && wrong_after (fun d -> d.(v) <- -1)
        && wrong_after (lowered v))

(* Fault-free, the ARQ must be invisible: same fixpoint, zero
   retransmissions (rto = 2 exactly covers the ack round-trip). *)
let test_reliable_fault_free_overhead () =
  let g = Gen.path 32 in
  let truth = Paths.bfs_hops g 0 in
  let dist, stats = Bfs.layers_reliable g ~root:0 in
  Alcotest.(check bool) "layers" true (dist = truth);
  Alcotest.(check int) "no spurious retransmissions" 0 stats.retransmissions;
  Alcotest.(check int) "nothing dropped" 0 stats.dropped_messages

(* A retransmission is counted once, by the engine: the registry's
   [backend="fast"] series equals the run's [stats.retransmissions],
   and Reliable registers no retransmission series of its own. *)
let test_retransmissions_counted_once () =
  let module Metrics = Ln_obs.Metrics in
  let rng = Random.State.make [| 5; 23 |] in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng ~n:40 ~p:0.1 ()) in
  let plan = Fault.make ~drop_prob:0.2 ~seed:5 () in
  Metrics.reset ();
  Metrics.set_on true;
  let _, stats =
    Fun.protect
      ~finally:(fun () -> Metrics.set_on false)
      (fun () ->
        Engine.with_backend Engine.Fast (fun () ->
            Engine.with_faults plan (fun () -> Bfs.layers_reliable g ~root:0)))
  in
  let snap = Metrics.snapshot () in
  Metrics.reset ();
  let engine =
    match
      Metrics.find snap ~labels:[ ("backend", "fast") ]
        "lightnet_engine_retransmissions_total"
    with
    | Some { Metrics.value = Metrics.Counter c; _ } -> c
    | _ -> Alcotest.fail "no fast-engine retransmission series"
  in
  Alcotest.(check bool) "drops forced retransmissions" true
    (stats.retransmissions > 0);
  Alcotest.(check int) "engine series = run stats" stats.retransmissions engine;
  Alcotest.(check bool) "no reliable retransmission series" true
    (Metrics.find snap "lightnet_reliable_retransmissions_total" = None)

let test_crash_stop () =
  (* Path 0-1-2-3; node 2 crashes before round 0: the flood reaches 0
     and 1 only, and the monitor calls that graceful degradation. *)
  let g = Gen.path 4 in
  let plan = Fault.make ~crashes:[ crash_stop 2 0 ] ~seed:1 () in
  let got, stats =
    Engine.with_faults plan (fun () -> Broadcast.flood g ~root:0 ~value:42)
  in
  Alcotest.(check bool) "node 1 reached" true (got.(1) = Some 42);
  Alcotest.(check bool) "node 2 dark" true (got.(2) = None);
  Alcotest.(check bool) "node 3 dark" true (got.(3) = None);
  Alcotest.(check bool) "drops counted" true (stats.dropped_messages > 0);
  let r = Monitor.broadcast g plan ~root:0 ~value:42 ~got in
  Alcotest.(check bool) "degraded" true (r.verdict = Monitor.Degraded)

let test_permanent_link_failure () =
  let g = Gen.path 3 in
  (* Edge 1 joins vertices 1 and 2 on the path. *)
  let plan =
    Fault.make
      ~link_failures:[ { Fault.edge = 1; from_round = 0; until_round = None } ]
      ~seed:2 ()
  in
  let got, _ =
    Engine.with_faults plan (fun () -> Broadcast.flood g ~root:0 ~value:7)
  in
  Alcotest.(check bool) "node 2 dark" true (got.(2) = None);
  let r = Monitor.broadcast g plan ~root:0 ~value:7 ~got in
  Alcotest.(check bool) "degraded" true (r.verdict = Monitor.Degraded)

let test_transient_link_failure_taxonomy () =
  let g = Gen.path 3 in
  let window =
    Fault.make
      ~link_failures:
        [ { Fault.edge = 1; from_round = 0; until_round = Some 50 } ]
      ~seed:3 ()
  in
  (* The raw forward-once flood sends over the edge exactly once,
     inside the failure window: node 2 stays dark. The window heals,
     so the surviving subgraph includes the edge — the monitor must
     say Wrong, not Degraded. *)
  let got, _ =
    Engine.with_faults window (fun () -> Broadcast.flood g ~root:0 ~value:9)
  in
  Alcotest.(check bool) "raw flood loses node 2" true (got.(2) = None);
  let r = Monitor.broadcast g window ~root:0 ~value:9 ~got in
  Alcotest.(check bool) "raw flood is Wrong" true (r.verdict = Monitor.Wrong);
  (* The ARQ retransmits past the window and stays Correct. *)
  Fault.reset window;
  let got, stats =
    Engine.with_faults window (fun () ->
        Broadcast.flood_reliable ~max_retries:100 g ~root:0 ~value:9)
  in
  Alcotest.(check bool) "reliable flood reaches node 2" true
    (got.(2) = Some 9);
  Alcotest.(check bool) "retransmissions counted" true
    (stats.retransmissions > 0);
  let r = Monitor.broadcast g window ~root:0 ~value:9 ~got in
  Alcotest.(check bool) "reliable flood is Correct" true
    (r.verdict = Monitor.Correct)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The plan validator must reject malformed schedules eagerly, with
   pinned messages — a typo'd window that silently compiles to "no
   fault" would quietly weaken every scenario built on it. *)
let test_make_validation () =
  let g = Gen.path 4 in
  (* n = 4, m = 3 *)
  let rejects msg build =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (build ()))
  in
  rejects "Fault.make: link 1 failure window [5,5) is empty" (fun () ->
      Fault.make
        ~link_failures:[ { Fault.edge = 1; from_round = 5; until_round = Some 5 } ]
        ~seed:0 ());
  rejects "Fault.make: link failure on edge 1 at round -2 is negative"
    (fun () ->
      Fault.make
        ~link_failures:
          [ { Fault.edge = 1; from_round = -2; until_round = None } ]
        ~seed:0 ());
  rejects "Fault.make: link-failure edge 3 out of range (m=3)" (fun () ->
      Fault.make
        ~link_failures:[ { Fault.edge = 3; from_round = 0; until_round = None } ]
        ~graph:g ~seed:0 ());
  rejects "Fault.make: crash window [5,5) of node 1 is empty" (fun () ->
      Fault.make
        ~crashes:[ { Fault.node = 1; crash_round = 5; recover_round = Some 5 } ]
        ~seed:0 ());
  rejects "Fault.make: crash of node 1 at round -1 is negative" (fun () ->
      Fault.make ~crashes:[ crash_stop 1 (-1) ] ~seed:0 ());
  rejects "Fault.make: crash node 4 out of range (n=4)" (fun () ->
      Fault.make ~crashes:[ crash_stop 4 0 ] ~graph:g ~seed:0 ());
  rejects "Fault.make: duplicate crash of node 2" (fun () ->
      Fault.make
        ~crashes:
          [
            crash_stop 2 0;
            { Fault.node = 2; crash_round = 3; recover_round = Some 9 };
          ]
        ~seed:0 ());
  (* A well-formed mixed schedule still builds. *)
  ignore
    (Fault.make
       ~crashes:
         [
           crash_stop 1 2;
           { Fault.node = 2; crash_round = 0; recover_round = Some 4 };
         ]
       ~link_failures:[ { Fault.edge = 0; from_round = 1; until_round = Some 3 } ]
       ~graph:g ~seed:0 ())

(* Crash-recovery semantics on a path 0-1-2-3: node 2 is down for
   rounds [0,6). The raw forward-once flood offers the value exactly
   once, inside the window — nodes 2 and 3 stay dark, and because node
   2 *heals*, the certifier must call that Wrong (the surviving
   subgraph includes it). The ARQ keeps retransmitting, reaches node 2
   after recovery, and node 2's own sends then wake node 3: Correct. *)
let test_crash_recovery () =
  let g = Gen.path 4 in
  let plan =
    Fault.make
      ~crashes:[ { Fault.node = 2; crash_round = 0; recover_round = Some 6 } ]
      ~seed:4 ()
  in
  Alcotest.(check bool) "down at 0" true (Fault.crashed plan ~node:2 ~round:0);
  Alcotest.(check bool) "down at 5" true (Fault.crashed plan ~node:2 ~round:5);
  Alcotest.(check bool) "up at 6" false (Fault.crashed plan ~node:2 ~round:6);
  Alcotest.(check bool) "survives (window heals)" true
    (Fault.surviving_node plan 2);
  let s = Fault.describe plan in
  Alcotest.(check bool) "window printed" true (contains s "crash2@[0,6)");
  let got, _ =
    Engine.with_faults plan (fun () -> Broadcast.flood g ~root:0 ~value:8)
  in
  Alcotest.(check bool) "raw flood loses 2 and 3" true
    (got.(2) = None && got.(3) = None);
  let r = Monitor.broadcast g plan ~root:0 ~value:8 ~got in
  Alcotest.(check bool) "raw flood is Wrong (node healed)" true
    (r.verdict = Monitor.Wrong);
  Fault.reset plan;
  let got, stats =
    Engine.with_faults plan (fun () ->
        Broadcast.flood_reliable ~max_retries:100 g ~root:0 ~value:8)
  in
  Alcotest.(check bool) "recovered node reached" true (got.(2) = Some 8);
  Alcotest.(check bool) "woken node forwards on" true (got.(3) = Some 8);
  Alcotest.(check bool) "retransmissions counted" true
    (stats.retransmissions > 0);
  let r = Monitor.broadcast g plan ~root:0 ~value:8 ~got in
  Alcotest.(check bool) "reliable flood is Correct" true
    (r.verdict = Monitor.Correct)

(* Retry exhaustion must surface, not hang: against a *permanent* link
   failure the ARQ burns its retry budget, declares the link dead
   (counted in Reliable.gave_up), converges, and the certifier says
   Degraded. The give-up accounting is part of the differential
   contract: both backends agree on retransmissions and gave_up. *)
let test_retry_exhaustion () =
  let g = Gen.path 4 in
  let plan =
    Fault.make
      ~link_failures:[ { Fault.edge = 1; from_round = 0; until_round = None } ]
      ~seed:9 ()
  in
  let program = Reliable.lift ~max_retries:4 (Broadcast.flood_program ~root:0 ~value:3) in
  let side runner =
    Fault.reset plan;
    let states, stats = Engine.with_faults plan (fun () -> runner g program) in
    let gave = Array.fold_left (fun a s -> a + Reliable.gave_up s) 0 states in
    let got = Array.map (fun s -> Reliable.project s) states in
    (got, stats, gave)
  in
  let got, stats, gave = side (fun g p -> Engine.run_fast g p) in
  Alcotest.(check bool) "converged, not capped" true
    (stats.outcome = Engine.Converged);
  Alcotest.(check bool) "link declared dead" true (gave > 0);
  Alcotest.(check bool) "payload abandoned" true (got.(2) = None);
  Alcotest.(check int) "bounded retries" 4 stats.retransmissions;
  let r = Monitor.broadcast g plan ~root:0 ~value:3 ~got in
  Alcotest.(check bool) "degraded, not silently Correct" true
    (r.verdict = Monitor.Degraded);
  let reference = side (fun g p -> Engine.run_reference g p) in
  Alcotest.(check bool) "reference agrees" true ((got, stats, gave) = reference)

(* The two-backend differential on an ARQ'ed protocol under a
   crash-*recovery* plan, including the canonical telemetry stream —
   the exact combination the scenario suite leans on. *)
let test_recovery_differential_all_backends () =
  let rng = Random.State.make [| 31; 23 |] in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng ~n:24 ~p:0.12 ()) in
  let plan =
    Fault.make ~drop_prob:0.1 ~drop_until:30
      ~crashes:
        [
          { Fault.node = 3; crash_round = 1; recover_round = Some 9 };
          { Fault.node = 11; crash_round = 4; recover_round = Some 12 };
          { Fault.node = 17; crash_round = 0; recover_round = None };
        ]
      ~seed:31 ()
  in
  let program = Reliable.lift ~max_retries:64 (Broadcast.flood_program ~root:0 ~value:6) in
  let side runner =
    Fault.reset plan;
    let res, tr =
      Ln_congest.Telemetry.record (fun () ->
          Engine.with_faults plan (fun () -> runner g program))
    in
    (res, Ln_congest.Telemetry.deterministic_lines tr, Fault.counts plan)
  in
  let (states, stats), lines, counts =
    side (fun g p -> Engine.run_fast g p)
  in
  Alcotest.(check bool) "crash drops recorded" true (counts.crash_drops > 0);
  Alcotest.(check bool) "recovered nodes reached" true
    (Reliable.project states.(3) = Some 6
    && Reliable.project states.(11) = Some 6);
  Alcotest.(check bool) "permanently crashed node dark" true
    (Reliable.project states.(17) = None);
  Alcotest.(check bool) "converged" true (stats.outcome = Engine.Converged);
  let base = ((states, stats), lines, counts) in
  Alcotest.(check bool) "reference backend byte-identical" true
    (side (fun g p -> Engine.run_reference g p) = base)

let test_plan_replayable () =
  let g = graph_of ~n:24 ~seed:5 in
  let program = flood_program ~seed:5 ~ttl:8 ~word_cap:4 in
  let plan = Fault.make ~drop_prob:0.2 ~seed:5 () in
  let run () = Engine.with_faults plan (fun () -> Engine.run g program) in
  Fault.reset plan;
  let s1, st1 = run () in
  let c1 = Fault.counts plan in
  Fault.reset plan;
  let s2, st2 = run () in
  Alcotest.(check bool) "same states" true (s1 = s2);
  Alcotest.(check bool) "same stats" true (st1 = st2);
  Alcotest.(check bool) "same counters" true (c1 = Fault.counts plan);
  (* Without a reset the run counter advances and the schedule moves. *)
  let _, st3 = run () in
  Alcotest.(check bool) "later runs decorrelated" true
    (st3.dropped_messages <> st1.dropped_messages
    || st3.rounds <> st1.rounds || st1.dropped_messages > 0)

let test_ambient_faults () =
  let g = Gen.path 8 in
  let plan =
    Fault.make
      ~link_failures:[ { Fault.edge = 3; from_round = 0; until_round = None } ]
      ~seed:6 ()
  in
  let got, stats =
    Engine.with_faults plan (fun () -> Broadcast.flood g ~root:0 ~value:1)
  in
  Alcotest.(check bool) "ambient plan applied" true
    (stats.dropped_messages > 0 && got.(7) = None);
  (* Restored afterwards. *)
  let got, stats = Broadcast.flood g ~root:0 ~value:1 in
  Alcotest.(check bool) "ambient plan restored" true
    (stats.dropped_messages = 0 && got.(7) = Some 1)

let test_monitor_bfs_and_forest () =
  let rng = Random.State.make [| 7; 7 |] in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng ~n:20 ~p:0.15 ()) in
  let clean = Fault.make ~seed:0 () in
  let dist, _ = Bfs.layers g ~root:0 in
  let r = Monitor.bfs g clean ~root:0 ~dist in
  Alcotest.(check bool) "clean BFS correct" true (r.verdict = Monitor.Correct);
  dist.(Graph.n g - 1) <- dist.(Graph.n g - 1) + 1;
  let r = Monitor.bfs g clean ~root:0 ~dist in
  Alcotest.(check bool) "corrupted BFS wrong" true (r.verdict = Monitor.Wrong);
  let mst = Ln_graph.Mst_seq.kruskal g in
  let r = Monitor.spanning_forest g clean ~edges:mst in
  Alcotest.(check bool) "MST spans" true (r.verdict = Monitor.Correct);
  let r = Monitor.spanning_forest g clean ~edges:(List.tl mst) in
  Alcotest.(check bool) "broken forest wrong" true (r.verdict = Monitor.Wrong)

let test_pp_stats_outcome () =
  let g = Gen.path 4 in
  let _, stats = Broadcast.flood g ~root:0 ~value:1 in
  let s = Format.asprintf "%a" Engine.pp_stats stats in
  Alcotest.(check bool) "outcome printed" true (contains s "outcome=converged");
  let plan = Fault.make ~crashes:[ crash_stop 3 0 ] ~seed:1 () in
  let _, stats =
    Engine.with_faults plan (fun () -> Broadcast.flood g ~root:0 ~value:1)
  in
  let s = Format.asprintf "%a" Engine.pp_stats stats in
  Alcotest.(check bool) "fault counters printed" true (contains s "dropped=")

let test_ledger_notes () =
  let l = Ledger.create () in
  Ledger.note l ~label:"seed" "42";
  let sub = Ledger.create () in
  Ledger.note sub ~label:"fault-plan" "seed=7 drop=0.2";
  Ledger.merge l ~prefix:"bfs" sub;
  Alcotest.(check bool) "notes propagate" true
    (Ledger.notes l = [ ("seed", "42"); ("bfs/fault-plan", "seed=7 drop=0.2") ])

let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xfa417 |]) t

let () =
  Alcotest.run "ln_fault"
    [
      ( "differential",
        [
          qcheck prop_differential_under_faults;
          qcheck prop_reliable_bfs_exact_layers;
          qcheck prop_bfs_crash_stops_never_wrong;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "reliable: fault-free overhead" `Quick
            test_reliable_fault_free_overhead;
          Alcotest.test_case "reliable: retransmissions counted once" `Quick
            test_retransmissions_counted_once;
          Alcotest.test_case "crash-stop" `Quick test_crash_stop;
          Alcotest.test_case "permanent link failure" `Quick
            test_permanent_link_failure;
          Alcotest.test_case "transient window taxonomy" `Quick
            test_transient_link_failure_taxonomy;
          Alcotest.test_case "make: validation messages" `Quick
            test_make_validation;
          Alcotest.test_case "crash-recovery window" `Quick
            test_crash_recovery;
          Alcotest.test_case "retry exhaustion surfaces" `Quick
            test_retry_exhaustion;
          Alcotest.test_case "recovery differential (both backends)" `Quick
            test_recovery_differential_all_backends;
          Alcotest.test_case "plans replay" `Quick test_plan_replayable;
          Alcotest.test_case "ambient with_faults" `Quick test_ambient_faults;
          Alcotest.test_case "monitor: bfs + forest" `Quick
            test_monitor_bfs_and_forest;
          Alcotest.test_case "pp_stats outcome" `Quick test_pp_stats_outcome;
          Alcotest.test_case "ledger notes" `Quick test_ledger_notes;
        ] );
    ]
