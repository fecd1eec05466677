(* Tests for the CONGEST engine and the distributed primitives
   (BFS tree, Lemma-1 broadcast, convergecast, keyed aggregation). *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Gen = Ln_graph.Gen
module Paths = Ln_graph.Paths
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Bfs = Ln_prim.Bfs
module Broadcast = Ln_prim.Broadcast
module Convergecast = Ln_prim.Convergecast
module Keyed = Ln_prim.Keyed

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rng () = Random.State.make [| 77 |]

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

(* A two-node ping-pong: node 0 sends k pings, node 1 echoes. *)
let pingpong k : (int, string) Engine.program =
  let open Engine in
  Engine.of_lists {
    name = "pingpong";
    words = (fun _ -> 1);
    init =
      (fun ctx ->
        if ctx.me = 0 then (0, [ { via = ctx_edge ctx 0; msg = "ping" } ])
        else (0, []));
    step =
      (fun _ctx ~round:_ count inbox ->
        match inbox with
        | [] -> (count, [], false)
        | { payload = "ping"; edge; _ } :: _ ->
          (count + 1, [ { via = edge; msg = "pong" } ], false)
        | { payload = _; edge; _ } :: _ ->
          let count = count + 1 in
          if count < k then (count, [ { via = edge; msg = "ping" } ], false)
          else (count, [], false));
  }

let test_engine_pingpong () =
  let g = Gen.path 2 in
  let states, stats = Engine.run g (pingpong 5) in
  check_int "pings echoed" 5 states.(1);
  check_int "pongs received" 5 states.(0);
  check_int "rounds = 2k" 10 stats.Engine.rounds;
  check_int "messages" 10 stats.Engine.messages

let test_engine_detects_double_send () =
  let g = Gen.path 2 in
  let bad : (unit, int) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "bad";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          if ctx.me = 0 then
            let e = ctx_edge ctx 0 in
            ((), [ { via = e; msg = 1 }; { via = e; msg = 2 } ])
          else ((), []));
      step = (fun _ ~round:_ s _ -> (s, [], false));
    }
  in
  check "raises" true
    (try
       ignore (Engine.run g bad);
       false
     with Engine.Congest_violation _ -> true)

let test_engine_detects_oversize () =
  let g = Gen.path 2 in
  let bad : (unit, int) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "fat";
      words = (fun _ -> 99);
      init =
        (fun ctx ->
          if ctx.me = 0 then ((), [ { via = ctx_edge ctx 0; msg = 1 } ])
          else ((), []));
      step = (fun _ ~round:_ s _ -> (s, [], false));
    }
  in
  check "raises" true
    (try
       ignore (Engine.run g bad);
       false
     with Engine.Congest_violation _ -> true)

let test_engine_max_rounds () =
  let g = Gen.path 2 in
  (* A program that never terminates: each node stays active forever. *)
  let loop : (unit, unit) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "loop";
      words = (fun () -> 1);
      init = (fun _ -> ((), []));
      step = (fun _ ~round:_ s _ -> (s, [], true));
    }
  in
  (* With [`Mark], the cap is reported in stats. *)
  let _, stats = Engine.run ~max_rounds:17 ~on_round_limit:`Mark g loop in
  check_int "capped" 17 stats.Engine.rounds;
  check "outcome marked" true (stats.Engine.outcome = Engine.Round_limit);
  (* By default, hitting the cap raises: a capped run is never a
     silent result. *)
  check "default raises" true
    (try
       ignore (Engine.run ~max_rounds:17 g loop);
       false
     with Engine.Congest_violation _ -> true);
  (* A converged run says so. *)
  let _, stats = Engine.run ~max_rounds:17 g (pingpong 2) in
  check "converged" true (stats.Engine.outcome = Engine.Converged)

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)

let test_ledger () =
  let l = Ledger.create () in
  Ledger.native l ~label:"bfs" 10;
  Ledger.charged l ~label:"le-lists" 100;
  let sub = Ledger.create () in
  Ledger.native sub ~label:"inner" 5;
  Ledger.merge l ~prefix:"aspt" sub;
  check_int "native" 15 (Ledger.native_total l);
  check_int "charged" 100 (Ledger.charged_total l);
  check_int "total" 115 (Ledger.total l);
  check_int "entries" 3 (List.length (Ledger.entries l));
  check "merged label" true
    (List.exists (fun e -> e.Ledger.label = "aspt/inner") (Ledger.entries l))

(* ------------------------------------------------------------------ *)
(* BFS tree                                                            *)

let test_bfs_tree_depths () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.08 () in
  let tree, stats = Bfs.tree g ~root:0 in
  check "spanning" true (Tree.covers_all tree);
  let hops = Paths.bfs_hops g 0 in
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if Tree.depth_hops tree v <> hops.(v) then ok := false
  done;
  check "BFS depths exact" true !ok;
  check "rounds about D" true (stats.Engine.rounds <= Graph.hop_diameter g + 2)

let prop_bfs_tree_random =
  QCheck2.Test.make ~name:"bfs tree spans with exact hop depths" ~count:30
    QCheck2.Gen.(pair (int_range 2 80) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 3 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.1 () in
      let root = n / 2 in
      let tree, _ = Bfs.tree g ~root in
      let hops = Paths.bfs_hops g root in
      Tree.covers_all tree
      && Array.for_all
           (fun v -> Tree.depth_hops tree v = hops.(v))
           (Array.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Broadcast (Lemma 1)                                                 *)

let test_broadcast_all_to_all () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.1 () in
  let tree, _ = Bfs.tree g ~root:0 in
  (* Every vertex holds one item: its own id. *)
  let items = Array.init (Graph.n g) (fun v -> [ v ]) in
  let result, stats = Broadcast.all_to_all g ~tree ~items in
  let expected = List.init (Graph.n g) Fun.id in
  Array.iteri
    (fun v got ->
      check
        (Printf.sprintf "node %d got all items" v)
        true
        (List.sort Int.compare got = expected))
    result;
  (* Lemma 1: O(M + D) rounds. Generous constant: 4 (M + D) + 10. *)
  let m = Graph.n g and d = Graph.hop_diameter g in
  check "round bound" true (stats.Engine.rounds <= (4 * (m + d)) + 10)

let test_broadcast_uneven_items () =
  let rng = rng () in
  let g = Gen.grid rng ~rows:4 ~cols:5 () in
  let tree, _ = Bfs.tree g ~root:7 in
  let items =
    Array.init (Graph.n g) (fun v -> if v mod 3 = 0 then [ (v, "a"); (v, "b") ] else [])
  in
  let result, _ = Broadcast.all_to_all g ~tree ~items in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 items in
  Array.iteri
    (fun v got -> check_int (Printf.sprintf "node %d count" v) total (List.length got))
    result

let test_gather_only_root () =
  let g = Gen.path 6 in
  let tree, _ = Bfs.tree g ~root:2 in
  let items = Array.init 6 (fun v -> [ v * 10 ]) in
  let result, _ = Broadcast.gather g ~tree ~items in
  check_int "root has all" 6 (List.length result.(2));
  check_int "leaf has none" 0 (List.length result.(0))

let test_downcast () =
  let g = Gen.star 8 in
  let tree, _ = Bfs.tree g ~root:0 in
  let result, _ = Broadcast.downcast g ~tree ~items:[ "x"; "y"; "z" ] in
  Array.iteri
    (fun v got -> check_int (Printf.sprintf "node %d" v) 3 (List.length got))
    result

(* ------------------------------------------------------------------ *)
(* Convergecast                                                        *)

let test_convergecast_sum () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.1 () in
  let tree, _ = Bfs.tree g ~root:3 in
  let total, stats =
    Convergecast.aggregate g ~tree ~value:(fun v -> v) ~combine:( + )
  in
  check_int "sum of ids" (50 * 49 / 2) total;
  check "rounds <= height+2" true
    (stats.Engine.rounds <= Tree.height_hops tree + 2)

let test_convergecast_all () =
  let g = Gen.path 9 in
  let tree, _ = Bfs.tree g ~root:0 in
  let total, stats =
    Convergecast.aggregate_all g ~tree ~value:(fun v -> float_of_int v) ~combine:Float.max
  in
  check "max id" true (total = 8.0);
  check "rounds <= 2 height + 2" true (stats.Engine.rounds <= (2 * Tree.height_hops tree) + 2)

(* ------------------------------------------------------------------ *)
(* Keyed aggregation                                                   *)

let test_keyed_global_best () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:30 ~p:0.15 () in
  let tree, _ = Bfs.tree g ~root:0 in
  let nkeys = 7 in
  (* Every vertex proposes (v mod nkeys, v); global best per key k is
     the max v ≡ k (mod nkeys). *)
  let local v = [ (v mod nkeys, v) ] in
  let table, _ = Keyed.global_best g ~tree ~nkeys ~local ~better:(fun a b -> a > b) in
  for k = 0 to nkeys - 1 do
    let expect =
      List.fold_left
        (fun acc v -> if v mod nkeys = k then max acc v else acc)
        (-1)
        (List.init 30 Fun.id)
    in
    match table.(k) with
    | Some v -> check_int (Printf.sprintf "key %d" k) expect v
    | None -> Alcotest.failf "key %d missing" k
  done

let test_keyed_sparse_keys () =
  let g = Gen.path 10 in
  let tree, _ = Bfs.tree g ~root:0 in
  let local v = if v = 7 then [ (3, 42.0) ] else [] in
  let table, _ =
    Keyed.global_best g ~tree ~nkeys:5 ~local ~better:(fun a b -> a > b)
  in
  check "only key 3 present" true
    (Array.to_list table = [ None; None; None; Some 42.0; None ])

(* ------------------------------------------------------------------ *)
(* Engine delivery semantics                                           *)

(* Every message sent in round r is delivered exactly once, in round
   r+1, to the other endpoint: flood a counter and compare against a
   direct computation. *)
let prop_engine_delivery =
  QCheck2.Test.make ~name:"messages delivered exactly once, next round" ~count:20
    QCheck2.Gen.(pair (int_range 2 30) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 1 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.3 () in
      (* Each node sends its id once on every edge at init; counts what
         it receives. *)
      let program : (int * int, int) Engine.program =
        let open Engine in
        Engine.of_lists {
          name = "count";
          words = (fun _ -> 1);
          init =
            (fun ctx ->
              ( (0, 0),
                List.rev
                  (ctx_fold_neighbors ctx
                     (fun acc e _ -> { via = e; msg = ctx.me } :: acc)
                     []) ));
          step =
            (fun _ ~round (c, r) inbox ->
              ((c + List.length inbox, max r round), [], false));
        }
      in
      let states, stats = Engine.run g program in
      let ok = ref (stats.Engine.rounds = 1) in
      Array.iteri
        (fun v (c, r) ->
          if c <> Graph.degree g v then ok := false;
          if Graph.degree g v > 0 && r <> 1 then ok := false)
        states;
      !ok && stats.Engine.messages = 2 * Graph.m g)

let test_engine_empty_program () =
  let g = Gen.path 5 in
  let program : (unit, unit) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "noop";
      words = (fun () -> 1);
      init = (fun _ -> ((), []));
      step = (fun _ ~round:_ s _ -> (s, [], false));
    }
  in
  let _, stats = Engine.run g program in
  check_int "one idle round then quiescent" 1 stats.Engine.rounds;
  check_int "no messages" 0 stats.Engine.messages

let test_engine_single_node () =
  let g = Graph.create 1 [] in
  let program : (int, unit) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "solo";
      words = (fun () -> 1);
      init = (fun _ -> (41, []));
      step = (fun _ ~round:_ s _ -> (s + 1, [], false));
    }
  in
  let states, _ = Engine.run g program in
  check_int "stepped once" 42 states.(0)

let test_engine_word_accounting () =
  let g = Gen.path 2 in
  let program : (unit, string) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "words";
      words = String.length;
      init =
        (fun ctx ->
          if ctx.me = 0 then ((), [ { via = ctx_edge ctx 0; msg = "abc" } ])
          else ((), []));
      step = (fun _ ~round:_ s _ -> (s, [], false));
    }
  in
  let _, stats = Engine.run g program in
  check_int "total words" 3 stats.Engine.total_words;
  check_int "max edge load" 3 stats.Engine.max_edge_load

(* Broadcast composes with convergecast: compute a global max, then a
   global histogram via all-to-all; both agree with direct math. *)
let test_primitives_compose () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:35 ~p:0.15 () in
  let tree, _ = Bfs.tree g ~root:0 in
  let mx, _ =
    Convergecast.aggregate g ~tree ~value:(fun v -> (v * 13) mod 17) ~combine:max
  in
  let direct = List.fold_left (fun a v -> max a ((v * 13) mod 17)) 0 (List.init 35 Fun.id) in
  check_int "max agrees" direct mx;
  let items = Array.init 35 (fun v -> [ (v * 13) mod 17 ]) in
  let all, _ = Broadcast.all_to_all g ~tree ~items in
  check_int "histogram size" 35 (List.length all.(7))

(* A tap sees every message of every run inside it. Nested taps see
   the same sequence, the inner one first; the outermost tap numbers
   runs from 0; and once [with_tap] has returned or raised, a run calls
   none of its callbacks. *)
let test_engine_observer () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:25 ~p:0.2 () in
  let program : (unit, int) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "obs";
      words = (fun _ -> 2);
      init =
        (fun ctx ->
          ( (),
            List.rev
              (ctx_fold_neighbors ctx
                 (fun acc e _ -> { via = e; msg = ctx.me } :: acc)
                 []) ));
      step = (fun _ ~round:_ s _ -> (s, [], false));
    }
  in
  let calls = ref [] in
  let message tap ~round ~from ~dest ~words =
    calls := (tap, (round, from, dest, words)) :: !calls
  in
  let runs = ref [] in
  let round ~run ~round:_ ~messages:_ ~words:_ ~steps:_ ~active:_ ~drops:_ =
    runs := run :: !runs
  in
  let _, stats =
    Engine.with_tap ~message:(message "outer") (fun () ->
        Engine.with_tap ~message:(message "inner") (fun () ->
            Engine.run g program))
  in
  let seen = List.rev !calls in
  let rec inner_then_outer = function
    | ("inner", a) :: ("outer", b) :: rest -> a = b && inner_then_outer rest
    | l -> l = []
  in
  check "inner tap first, then the outer one, per message" true
    (inner_then_outer seen);
  check_int "tap saw every message" stats.Engine.messages (List.length seen / 2);
  check_int "tap counted all words" (2 * stats.Engine.total_words)
    (List.fold_left (fun acc (_, (_, _, _, w)) -> acc + w) 0 seen);
  let runs_of_two () =
    runs := [];
    Engine.with_tap ~round (fun () ->
        ignore (Engine.run g program);
        ignore (Engine.run g program));
    List.sort_uniq compare !runs
  in
  check "each outermost tap numbers runs from 0" true
    (runs_of_two () = [ 0; 1 ] && runs_of_two () = [ 0; 1 ]);
  (try
     Engine.with_tap ~message:(message "raised") ~round (fun () -> raise Exit)
   with Exit -> ());
  let n_calls = List.length !calls and n_runs = List.length !runs in
  ignore (Engine.run g program);
  check_int "no message callback after the taps are gone" n_calls
    (List.length !calls);
  check_int "no round callback after the taps are gone" n_runs
    (List.length !runs)

(* A telemetry recording's Round and Link events aggregate the same
   message stream the engine's stats count: per round and per
   directed link. *)
let test_trace_aggregation () =
  let rng = rng () in
  let g = Gen.erdos_renyi rng ~n:30 ~p:0.15 () in
  let program : (unit, int) Engine.program =
    let open Engine in
    Engine.of_lists {
      name = "trace-me";
      words = (fun _ -> 2);
      init =
        (fun ctx ->
          ( (),
            List.rev
              (ctx_fold_neighbors ctx
                 (fun acc e _ -> { via = e; msg = ctx.me } :: acc)
                 []) ));
      step =
        (fun ctx ~round s _ ->
          (* One extra wave in round 1. *)
          if round = 1 && ctx.me = 0 then
            ( s,
              List.rev
                (ctx_fold_neighbors ctx
                   (fun acc e _ -> { via = e; msg = 99 } :: acc)
                   []),
              false )
          else (s, [], false));
    }
  in
  let (_, stats), tr = Telemetry.record (fun () -> Engine.run g program) in
  let rounds =
    List.filter_map
      (function
        | Telemetry.Round { round; messages; words; _ } ->
          Some (round, messages, words)
        | _ -> None)
      tr.Telemetry.events
  in
  let links =
    List.filter_map
      (function Telemetry.Link { messages; _ } -> Some messages | _ -> None)
      tr.Telemetry.events
  in
  let sum = List.fold_left ( + ) 0 in
  check_int "messages agree" stats.Engine.messages
    (sum (List.map (fun (_, m, _) -> m) rounds));
  check_int "words agree" stats.Engine.total_words
    (sum (List.map (fun (_, _, w) -> w) rounds));
  check_int "link loads sum to messages" stats.Engine.messages (sum links);
  check_int "two busy rounds" 2
    (List.length (List.filter (fun (_, m, _) -> m > 0) rounds));
  let load r =
    List.fold_left
      (fun (am, aw) (r', m, w) -> if r' = r then (am + m, aw + w) else (am, aw))
      (0, 0) rounds
  in
  let m0, w0 = load 0 in
  check_int "round-0 msgs = 2m" (2 * Graph.m g) m0;
  check_int "round-0 words" (4 * Graph.m g) w0;
  check_int "round-1 msgs = deg(0)" (Graph.degree g 0) (fst (load 1));
  check "round 0 is the peak" true
    (List.for_all (fun (_, m, _) -> m <= m0) rounds);
  check_int "one link per direction" (2 * Graph.m g) (List.length links);
  check_int "peak link is node 0's twice-used edge" 2
    (List.fold_left max 0 links)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed2 |]) t

let () =
  Alcotest.run "ln_congest"
    [
      ( "engine",
        [
          Alcotest.test_case "pingpong" `Quick test_engine_pingpong;
          Alcotest.test_case "double send detected" `Quick test_engine_detects_double_send;
          Alcotest.test_case "oversize detected" `Quick test_engine_detects_oversize;
          Alcotest.test_case "max rounds" `Quick test_engine_max_rounds;
          Alcotest.test_case "ledger" `Quick test_ledger;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "depths" `Quick test_bfs_tree_depths;
          qcheck prop_bfs_tree_random;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "all to all" `Quick test_broadcast_all_to_all;
          Alcotest.test_case "uneven items" `Quick test_broadcast_uneven_items;
          Alcotest.test_case "gather" `Quick test_gather_only_root;
          Alcotest.test_case "downcast" `Quick test_downcast;
        ] );
      ( "convergecast",
        [
          Alcotest.test_case "sum" `Quick test_convergecast_sum;
          Alcotest.test_case "aggregate all" `Quick test_convergecast_all;
        ] );
      ( "keyed",
        [
          Alcotest.test_case "global best" `Quick test_keyed_global_best;
          Alcotest.test_case "sparse keys" `Quick test_keyed_sparse_keys;
        ] );
      ( "engine-semantics",
        [
          qcheck prop_engine_delivery;
          Alcotest.test_case "empty program" `Quick test_engine_empty_program;
          Alcotest.test_case "single node" `Quick test_engine_single_node;
          Alcotest.test_case "word accounting" `Quick test_engine_word_accounting;
          Alcotest.test_case "primitives compose" `Quick test_primitives_compose;
          Alcotest.test_case "observer" `Quick test_engine_observer;
          Alcotest.test_case "trace aggregation" `Quick test_trace_aggregation;
        ] );
    ]
