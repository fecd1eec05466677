(* Differential tests: the fast engine (arena mailboxes, active-set
   scheduler) must be observationally identical to the reference
   list-based engine — same final states, same stats, and the same
   observer call sequence — on randomized word-bounded flood programs
   over random graphs. The programs are deterministic functions of a
   seed (no hidden Random state), so running each engine once is a
   fair comparison; their step functions fold the inbox with a
   non-commutative operation so that any divergence in message
   ordering is caught, not just in message multisets. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Engine = Ln_congest.Engine

(* A small deterministic mixer (splitmix-style). *)
let mix a b c d =
  let h = ref (a * 0x9E3779B1) in
  h := (!h lxor (b * 0x85EBCA6B)) * 0xC2B2AE35;
  h := (!h lxor (c * 0x27D4EB2F)) * 0x165667B1;
  h := !h lxor (d * 0x9E3779B1);
  h := !h lxor (!h lsr 15);
  abs !h

(* A word-bounded pseudorandom flood: every node stays active for
   [ttl] rounds, sending over a seed-dependent subset of its edges
   each round; payloads and word sizes are seed-dependent; state is an
   order-sensitive digest of everything received. *)
let flood_program ~seed ~ttl ~word_cap : (int, int) Engine.program =
  let open Engine in
  let payload_of ~me ~round ~edge = mix seed me round edge mod 1000 in
  let sends ctx ~round ~state =
    List.rev
      (ctx_fold_neighbors ctx
         (fun acc edge _ ->
           if mix seed (ctx.me + state) round edge mod 3 <> 0 then
             { via = edge; msg = payload_of ~me:ctx.me ~round ~edge } :: acc
           else acc)
         [])
  in
  Engine.of_lists {
    name = "rand-flood";
    words = (fun m -> 1 + (abs m mod word_cap));
    init = (fun ctx -> (ctx.me, sends ctx ~round:0 ~state:0));
    step =
      (fun ctx ~round s inbox ->
        let s =
          List.fold_left
            (fun acc (r : int received) ->
              (acc * 31) + (r.from * 7) + r.payload + r.edge)
            s inbox
        in
        let s = s land 0xFFFFFF in
        if round <= ttl then (s, sends ctx ~round ~state:s, round < ttl)
        else (s, [], false));
  }

type event = { round : int; from : int; dest : int; words : int }

let record_observer events ~round ~from ~dest ~words =
  events := { round; from; dest; words } :: !events

let run_both ?max_rounds g program =
  let ev_fast = ref [] and ev_ref = ref [] in
  let fast =
    Engine.with_tap ~message:(record_observer ev_fast) (fun () ->
        Engine.run_fast ?max_rounds ~on_round_limit:`Mark g program)
  in
  let reference =
    Engine.with_tap ~message:(record_observer ev_ref) (fun () ->
        Engine.run_reference ?max_rounds ~on_round_limit:`Mark g program)
  in
  (fast, reference, !ev_fast, !ev_ref)

let graph_of ~n ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  let p = 0.05 +. (float_of_int (seed mod 7) /. 10.0) in
  Gen.erdos_renyi rng ~n ~p ()

let prop_states_and_stats_agree =
  QCheck2.Test.make ~name:"fast and reference engines agree (states, stats, observer)"
    ~count:150
    QCheck2.Gen.(
      triple (int_range 2 60) (int_range 0 100_000) (int_range 0 12))
    (fun (n, seed, ttl) ->
      let g = graph_of ~n ~seed in
      let word_cap = 4 in
      let program = flood_program ~seed ~ttl ~word_cap in
      let (s_fast, st_fast), (s_ref, st_ref), ev_fast, ev_ref =
        run_both g program
      in
      s_fast = s_ref && st_fast = st_ref && ev_fast = ev_ref)

(* The round-limit marker must also agree: truncate runs at a random
   cap and compare rounds, outcome and partial states. *)
let prop_round_limit_agrees =
  QCheck2.Test.make ~name:"fast and reference engines agree under max_rounds"
    ~count:80
    QCheck2.Gen.(
      triple (int_range 2 40) (int_range 0 100_000) (int_range 0 6))
    (fun (n, seed, cap) ->
      let g = graph_of ~n ~seed in
      let program = flood_program ~seed ~ttl:10 ~word_cap:4 in
      let (s_fast, st_fast), (s_ref, st_ref), ev_fast, ev_ref =
        run_both ~max_rounds:cap g program
      in
      s_fast = s_ref && st_fast = st_ref && ev_fast = ev_ref)

(* Sparse-phase workload aimed at the active-set scheduler: a token
   walks a path graph, so all but one node are quiescent each round. *)
let token_walk len : (int, unit) Engine.program =
  let open Engine in
  Engine.of_lists {
    name = "token-walk";
    words = (fun () -> 1);
    init =
      (fun ctx ->
        if ctx.me = 0 then (1, [ { via = ctx_edge ctx 0; msg = () } ])
        else (0, []));
    step =
      (fun ctx ~round:_ s inbox ->
        match inbox with
        | [] -> (s, [], false)
        | { edge; _ } :: _ ->
          let forward =
            List.rev
              (ctx_fold_neighbors ctx
                 (fun acc e _ ->
                   if e <> edge && ctx.me < len then { via = e; msg = () } :: acc
                   else acc)
                 [])
          in
          (s + 1, forward, false));
  }

let test_token_walk_agrees () =
  let g = Gen.path 64 in
  let program = token_walk 64 in
  let (s_fast, st_fast), (s_ref, st_ref), ev_fast, ev_ref =
    run_both g program
  in
  Alcotest.(check bool) "states" true (s_fast = s_ref);
  Alcotest.(check bool) "stats" true (st_fast = st_ref);
  Alcotest.(check bool) "events" true (ev_fast = ev_ref);
  (* The scheduler must actually skip the quiescent tail. *)
  let perf = Engine.create_perf () in
  let _ = Engine.run_fast ~perf g program in
  Alcotest.(check bool) "scheduler skips quiescent nodes" true
    (Engine.skip_ratio perf > 0.5)

let test_backend_dispatch () =
  let g = Gen.path 8 in
  let program = token_walk 8 in
  let _, st_default = Engine.run g program in
  let _, st_ref =
    Engine.with_backend Engine.Reference (fun () -> Engine.run g program)
  in
  Alcotest.(check bool) "dispatch restores backend" true
    (Engine.current_backend () = Engine.Fast);
  Alcotest.(check bool) "same stats through dispatch" true (st_default = st_ref);
  let _, st_par =
    Engine.with_backend (Engine.Par 2) (fun () -> Engine.run g program)
  in
  Alcotest.(check bool) "Par runs as Fast" true (st_default = st_par)

(* ------------------------------------------------------------------ *)
(* Topology stress for the flat-ctx hot path. Power-law RMAT graphs
   exercise exactly what uniform Erdős–Rényi samples cannot: hub nodes
   whose inbox chains span a large fraction of the arena, so the
   stamp-guarded chain walk and the dense-round membership scan both
   see heavy skew. Seeds are pinned through the generator so every
   replay builds the same graph. *)

module Telemetry = Ln_congest.Telemetry

(* Run one backend under a fresh telemetry recording, capturing result,
   the messages an inner tap saw and the canonical stream (round
   samples and link totals; Telemetry.deterministic_lines strips the
   wall-clock fields, the only legitimate differences). *)
let capture runner g program =
  let ev = ref [] in
  let res, tr =
    Telemetry.record (fun () ->
        Engine.with_tap ~message:(record_observer ev) (fun () ->
            runner g program))
  in
  (res, !ev, Telemetry.deterministic_lines tr)

let graph_rmat ~scale ~seed =
  let rng = Random.State.make [| seed; 0x9a7 |] in
  Gen.ensure_connected rng (Gen.rmat rng ~scale ~edge_factor:8 ())

let prop_rmat_all_backends_agree =
  QCheck2.Test.make
    ~name:"RMAT topology: fast = reference (states, stats, telemetry)"
    ~count:12
    QCheck2.Gen.(
      triple (int_range 4 7) (int_range 0 100_000) (int_range 0 8))
    (fun (scale, seed, ttl) ->
      let g = graph_rmat ~scale ~seed in
      let program = flood_program ~seed ~ttl ~word_cap:4 in
      let fast =
        capture (fun g p -> Engine.run_fast ~on_round_limit:`Mark g p) g program
      in
      let reference =
        capture
          (fun g p -> Engine.run_reference ~on_round_limit:`Mark g p)
          g program
      in
      fast = reference)

(* A star graph concentrates every message of a round onto one hub, so
   the hub's arena inbox chain is as long as the graph is wide. The
   digest is order-sensitive: the chain must unwind to exactly the
   reference engine's prepend order or the fold diverges. *)
let star_inbox_chain () =
  let n = 4097 in
  let g = Gen.star n in
  let open Engine in
  let program : (int, int) Engine.program =
    Engine.of_lists {
      name = "star-chain";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          if ctx_degree ctx = 1 then
            (0, [ { via = ctx_edge ctx 0; msg = ctx.me } ])
          else (1, []));
      step =
        (fun _ctx ~round:_ s inbox ->
          let s =
            List.fold_left
              (fun acc (r : int received) -> (acc * 131) + r.payload + r.from)
              s inbox
          in
          (s land 0x3FFFFFFF, [], false));
    }
  in
  let fast = capture (fun g p -> Engine.run_fast g p) g program in
  let reference = capture (fun g p -> Engine.run_reference g p) g program in
  Alcotest.(check bool) "fast = reference on star hub" true (fast = reference);
  let (states, _), _, _ = fast in
  (* The hub saw all n-1 leaves; a zero digest would mean an empty or
     truncated chain slipped through. *)
  Alcotest.(check bool) "hub digest nonzero" true (states.(0) <> 1)

(* A step that runs a whole engine run on the same graph between moving
   its inbox cursor onto the first message and reading it. The nested
   run must take fresh scratch (the outer run's is busy) and leave the
   outer run's cursor, arena and sends alone: both backends agree on
   states, stats, tap and telemetry, and the outer run's inbox digests
   and stats equal those of the same program without the nested run. *)
let nested_run_keeps_outer_cursor () =
  let g = Gen.ensure_connected (Random.State.make [| 11 |]) (graph_of ~n:40 ~seed:11) in
  let open Engine in
  let to_all ctx msg = ctx_iter_neighbors ctx (fun e _ -> ctx_send ctx ~via:e msg) in
  let inner : (int, int) Engine.program =
    {
      name = "inner-max";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          to_all ctx ctx.me;
          ctx.me);
      step =
        (fun ctx ~round:_ s ->
          let best = ref s in
          while ctx_inbox_next ctx do
            best := max !best (ctx_inbox_payload ctx)
          done;
          if !best > s then to_all ctx !best;
          !best);
    }
  in
  let outer ~nest : (int * int, int) Engine.program =
    {
      name = "outer-nest";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          to_all ctx ctx.me;
          (ctx.me, 0));
      step =
        (fun ctx ~round (digest, nested) ->
          let digest = ref digest and nested = ref nested and first = ref true in
          while ctx_inbox_next ctx do
            if !first && nest && ctx.me mod 5 = 0 then begin
              let states, st = Engine.run g inner in
              nested := Array.fold_left ( + ) (!nested + st.rounds) states
            end;
            first := false;
            digest :=
              ((!digest * 131) + (ctx_inbox_from ctx * 7) + ctx_inbox_edge ctx
              + ctx_inbox_payload ctx)
              land 0x3FFFFFFF
          done;
          if round < 4 then begin
            to_all ctx (!digest land 0xFF);
            ctx_stay_active ctx
          end;
          (!digest, !nested));
    }
  in
  let fast = capture (fun g p -> Engine.run_fast g p) g (outer ~nest:true) in
  let reference = capture (fun g p -> Engine.run_reference g p) g (outer ~nest:true) in
  Alcotest.(check bool) "fast = reference with nested runs" true (fast = reference);
  let (states, stats), _, _ = fast in
  let plain, plain_stats = Engine.run_fast g (outer ~nest:false) in
  Alcotest.(check (array int)) "outer inbox digests unaffected"
    (Array.map fst plain) (Array.map fst states);
  Alcotest.(check bool) "outer stats unaffected" true (stats = plain_stats);
  Alcotest.(check bool) "nested runs ran" true (snd states.(0) > 0)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed4 |]) t

let () =
  Alcotest.run "ln_congest_diff"
    [
      ( "differential",
        [
          qcheck prop_states_and_stats_agree;
          qcheck prop_round_limit_agrees;
          qcheck prop_rmat_all_backends_agree;
          Alcotest.test_case "token walk (sparse phases)" `Quick
            test_token_walk_agrees;
          Alcotest.test_case "star hub inbox chain" `Quick star_inbox_chain;
          Alcotest.test_case "nested run keeps the outer cursor" `Quick
            nested_run_keeps_outer_cursor;
          Alcotest.test_case "backend dispatch" `Quick test_backend_dispatch;
        ] );
    ]
