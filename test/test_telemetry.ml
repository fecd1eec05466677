(* Telemetry layer tests: rate-guard contracts, deterministic link
   ordering, span/ledger equivalence, per-round sample consistency,
   export round-trips, and the headline differential property — the
   full telemetry event stream (spans, round samples, link totals)
   must be byte-identical between the fast and reference engine
   backends, with and without an ambient fault plan. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Engine = Ln_congest.Engine
module Fault = Ln_congest.Fault
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Bfs = Ln_prim.Bfs
module Light_spanner = Ln_spanner.Light_spanner

(* ------------------------------------------------------------------ *)
(* Satellite: rate helpers never emit inf/nan.                         *)

let finite_nonneg name x =
  Alcotest.(check bool) (name ^ " finite") true (Float.is_finite x);
  Alcotest.(check bool) (name ^ " >= 0") true (x >= 0.0)

let test_rate_guards () =
  let p = Engine.create_perf () in
  (* All-zero perf: every denominator is zero. *)
  Alcotest.(check (float 0.0)) "rounds/s of empty" 0.0 (Engine.rounds_per_sec p);
  Alcotest.(check (float 0.0)) "msgs/s of empty" 0.0 (Engine.messages_per_sec p);
  Alcotest.(check (float 0.0)) "skip ratio of empty" 0.0 (Engine.skip_ratio p);
  (* Work recorded but the clock never advanced (sub-resolution smoke
     runs): still 0.0, never inf. *)
  p.Engine.rounds <- 1234;
  p.Engine.messages <- 99999;
  p.Engine.skipped <- 10;
  Alcotest.(check (float 0.0)) "rounds/s at wall=0" 0.0 (Engine.rounds_per_sec p);
  Alcotest.(check (float 0.0)) "msgs/s at wall=0" 0.0 (Engine.messages_per_sec p);
  finite_nonneg "skip ratio (steps=0, skipped>0)" (Engine.skip_ratio p);
  Alcotest.(check (float 1e-9)) "skip ratio all-skipped" 1.0 (Engine.skip_ratio p);
  (* Negative wall must not sneak through as a negative rate. *)
  p.Engine.wall <- -1.0;
  Alcotest.(check (float 0.0)) "rounds/s at wall<0" 0.0 (Engine.rounds_per_sec p);
  (* A real run produces finite, non-negative rates. *)
  let g = Gen.path 32 in
  let perf = Engine.create_perf () in
  let _ = Engine.run_fast ~perf g (Engine.of_lists (Bfs.relaxing_program ~root:0)) in
  finite_nonneg "rounds/s of real run" (Engine.rounds_per_sec perf);
  finite_nonneg "msgs/s of real run" (Engine.messages_per_sec perf);
  finite_nonneg "skip ratio of real run" (Engine.skip_ratio perf)

(* ------------------------------------------------------------------ *)
(* Link events are ordered by (from, dest), whatever the load.         *)

(* Per-link loads of one recorded run on K_8: every node floods its
   incident edges highest edge id first, so the engine observes links
   far from sorted order; [extra (me, round)] lists further peers a
   node messages in rounds 1 and 2. *)
let link_loads extra =
  let n = 8 in
  let g =
    Graph.create n
      (List.concat
         (List.init n (fun u ->
              List.init (n - u - 1) (fun i -> { Graph.u; v = u + 1 + i; w = 1.0 }))))
  in
  let program : (unit, unit) Engine.program =
    let open Engine in
    let sends ctx keep =
      ctx_fold_neighbors ctx
        (fun acc e u -> if keep u then { via = e; msg = () } :: acc else acc)
        []
    in
    Engine.of_lists {
      name = "link-ties";
      words = (fun () -> 1);
      init = (fun ctx -> ((), sends ctx (fun _ -> true)));
      step =
        (fun ctx ~round () _ ->
          let peers = extra (ctx.me, round) in
          ((), sends ctx (fun u -> List.mem u peers), round < 2));
    }
  in
  let (_, stats), tr = Telemetry.record (fun () -> Engine.run g program) in
  let links =
    List.filter_map
      (function
        | Telemetry.Link { from; dest; messages } -> Some ((from, dest), messages)
        | _ -> None)
      tr.Telemetry.events
  in
  Alcotest.(check int) "link loads sum to messages" stats.Engine.messages
    (List.fold_left (fun a (_, m) -> a + m) 0 links);
  links

let test_link_load_ties () =
  let pairs =
    List.concat
      (List.init 8 (fun u ->
           List.filter_map (fun v -> if u <> v then Some (u, v) else None)
             (List.init 8 Fun.id)))
  in
  Alcotest.(check bool) "all-ties ordered by (from, dest)" true
    (link_loads (fun _ -> []) = List.map (fun l -> (l, 1)) pairs);
  (* Mixed loads: the order stays (from, dest), not load. *)
  let extra = function (3, (1 | 2)) -> [ 1 ] | (0, 1) -> [ 4 ] | _ -> [] in
  let load = function (3, 1) -> 3 | (0, 4) -> 2 | _ -> 1 in
  Alcotest.(check bool) "mixed loads ordered by (from, dest)" true
    (link_loads extra = List.map (fun l -> (l, load l)) pairs)

(* ------------------------------------------------------------------ *)
(* Spans: measurement matches the engine totals; ledger auto-entry.    *)

let test_span_ledger () =
  let g = Gen.path 24 in
  let ledger = Ledger.create () in
  let before = Engine.snapshot_totals () in
  let _ = Telemetry.span ~ledger "bfs" (fun () -> Bfs.tree g ~root:0) in
  let d = Engine.totals_since before in
  Alcotest.(check int) "ledger native total = measured rounds"
    d.Engine.rounds (Ledger.native_total ledger);
  Alcotest.(check bool) "a path BFS takes >= diameter rounds" true
    (d.Engine.rounds >= 23);
  (* A span whose body raises closes cleanly but records nothing. *)
  let l2 = Ledger.create () in
  (try Telemetry.span ~ledger:l2 "boom" (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check int) "no ledger entry on exception" 0 (Ledger.native_total l2)

(* ------------------------------------------------------------------ *)
(* Round samples: deltas add back up to the run's stats.               *)

let test_round_samples () =
  let g = Gen.path 40 in
  let stats = ref None in
  let (), tr =
    Telemetry.record (fun () ->
        let _, st = Bfs.tree g ~root:0 in
        stats := Some st)
  in
  let st = Option.get !stats in
  let msg_sum = ref 0 and word_sum = ref 0 and step_sum = ref 0 in
  let executed = ref 0 and init_samples = ref 0 in
  List.iter
    (function
      | Telemetry.Round { round; messages; words; steps; active; drops; _ } ->
        msg_sum := !msg_sum + messages;
        word_sum := !word_sum + words;
        step_sum := !step_sum + steps;
        if round = 0 then begin
          incr init_samples;
          Alcotest.(check int) "init round has no steps" 0 steps;
          Alcotest.(check int) "init round activates all nodes" (Graph.n g) active
        end
        else incr executed;
        Alcotest.(check bool) "drops non-negative" true (drops >= 0)
      | _ -> ())
    tr.Telemetry.events;
  Alcotest.(check int) "one init sample per engine run" 1 !init_samples;
  Alcotest.(check int) "executed-round samples = stats.rounds"
    st.Engine.rounds !executed;
  Alcotest.(check int) "recording's round clock matches" st.Engine.rounds
    tr.Telemetry.rounds;
  Alcotest.(check int) "message deltas sum to stats.messages"
    st.Engine.messages !msg_sum;
  Alcotest.(check int) "word deltas sum to stats.total_words"
    st.Engine.total_words !word_sum

(* A recording ends with its body: one that raises leaves no recording
   behind, so the next [record] captures only its own run, and a nested
   [record] is refused without leaving one behind either. *)
let test_record_scoped () =
  let g = Gen.path 12 in
  (try
     ignore
       (Telemetry.record (fun () ->
            ignore (Bfs.tree g ~root:0);
            raise Exit))
   with Exit -> ());
  let (_, st), tr = Telemetry.record (fun () -> Bfs.tree g ~root:0) in
  Alcotest.(check int) "next recording holds only its own rounds"
    st.Engine.rounds tr.Telemetry.rounds;
  Alcotest.(check int) "and only its own engine run" 1
    (List.length
       (List.filter
          (function Telemetry.Round { round = 0; _ } -> true | _ -> false)
          tr.Telemetry.events));
  Alcotest.(check bool) "nested record raises Invalid_argument" true
    (match Telemetry.record (fun () -> Telemetry.record ignore) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let (), tr = Telemetry.record (fun () -> ()) in
  Alcotest.(check int) "the refused nesting left nothing behind" 0
    (List.length tr.Telemetry.events)

(* ------------------------------------------------------------------ *)
(* Export round-trips: both formats reload to the same deterministic
   stream. *)

let spanner_recording () =
  let rng = Random.State.make [| 31; 7 |] in
  let g =
    Gen.ensure_connected
      (Random.State.make [| 31; 8 |])
      (Gen.erdos_renyi (Random.State.make [| 31; 9 |]) ~n:48 ~p:0.15 ())
  in
  let _, tr =
    Telemetry.record (fun () -> Light_spanner.build ~rng g ~k:2 ~epsilon:0.3)
  in
  ignore (Graph.n g);
  tr

let span_names (tr : Telemetry.t) =
  List.filter_map
    (function Telemetry.Span_begin { name; _ } -> Some name | _ -> None)
    tr.Telemetry.events

(* A trace as the writers that also recorded an engine domain count
   wrote it: a "domains" key right after "retrans" in every span_end
   event and every Chrome "E" args object. *)
let with_domains_key text =
  let key = {|"retrans":|} in
  let k = String.length key and n = String.length text in
  let rec find i =
    if i + k > n then None
    else if String.sub text i k = key then Some i
    else find (i + 1)
  in
  let b = Buffer.create n in
  let rec go i =
    match find i with
    | None -> Buffer.add_substring b text i (n - i)
    | Some at ->
      let j = ref (at + k) in
      while text.[!j] <> ',' && text.[!j] <> '}' do incr j done;
      Buffer.add_substring b text i (!j - i);
      Buffer.add_string b {|,"domains":2|};
      go !j
  in
  go 0;
  Buffer.contents b

let test_export_roundtrip () =
  let tr = spanner_recording () in
  Alcotest.(check bool) "recording is non-trivial" true
    (List.length (Telemetry.deterministic_lines tr) > 50);
  (* A span name needing every kind of JSON escape: quote, backslash,
     newline, a control byte, and UTF-8. *)
  let (), odd =
    Telemetry.record (fun () ->
        Telemetry.span "q\"b\\s\n\x01ε" (fun () ->
            ignore (Bfs.tree (Gen.path 8) ~root:0)))
  in
  (* The trace-metrics bridge: a snapshot with a counter, a histogram
     and a -inf gauge rides along in the Chrome file. *)
  let snap =
    let module Metrics = Ln_obs.Metrics in
    let c = Metrics.counter "test_tel_rt_total" in
    let g = Metrics.gauge "test_tel_rt_gauge" in
    let h = Metrics.histogram "test_tel_rt_us" in
    Metrics.reset ();
    Metrics.set_on true;
    Metrics.add c 3;
    Metrics.set g Float.neg_infinity;
    List.iter (Metrics.observe h) [ 0.5; 2.0; 7.25 ];
    Metrics.set_on false;
    let snap = Metrics.snapshot () in
    Metrics.reset ();
    snap
  in
  let gauge_track file =
    let open Ln_obs.Obs_json in
    List.find_map
      (fun e ->
        if member "name" e = Str "metrics/test_tel_rt_gauge" then
          to_float_opt (path [ "args"; "value" ] e)
        else None)
      (to_list (member "traceEvents" (parse_file file)))
  in
  List.iter
    (fun (tr, path, metrics) ->
      Telemetry.write_file ?metrics tr path;
      if Option.is_some metrics then
        Alcotest.(check bool) (path ^ " carries the -inf gauge") true
          (gauge_track path = Some Float.neg_infinity);
      let back = Telemetry.load_file path in
      Alcotest.(check (list string))
        (path ^ " round-trips")
        (Telemetry.deterministic_lines tr)
        (Telemetry.deterministic_lines back);
      Alcotest.(check (list string))
        (path ^ " keeps span names") (span_names tr) (span_names back);
      Alcotest.(check int) (path ^ " keeps the round clock") tr.Telemetry.rounds
        back.Telemetry.rounds;
      Sys.remove path)
    [
      (tr, "roundtrip_test.jsonl", None);
      (tr, "roundtrip_test.json", None);
      (tr, "roundtrip_metrics.json", Some snap);
      (odd, "roundtrip_odd.jsonl", None);
      (odd, "roundtrip_odd.json", None);
    ];
  (* Older traces that carry the "domains" key load to the same
     events, coverage and report as the same trace without it. *)
  List.iter
    (fun path ->
      let keyed = "keyed_" ^ path in
      Telemetry.write_file tr path;
      let text = In_channel.with_open_bin path In_channel.input_all in
      let old = with_domains_key text in
      Alcotest.(check bool) (keyed ^ " carries the key") true (old <> text);
      Out_channel.with_open_bin keyed (fun oc -> output_string oc old);
      let a = Telemetry.load_file path and b = Telemetry.load_file keyed in
      Alcotest.(check (list string))
        (keyed ^ " loads the same events")
        (Telemetry.deterministic_lines a)
        (Telemetry.deterministic_lines b);
      Alcotest.(check (option (float 0.0)))
        (keyed ^ " same leaf coverage")
        (Telemetry.leaf_round_coverage a)
        (Telemetry.leaf_round_coverage b);
      Alcotest.(check string)
        (keyed ^ " same report")
        (Format.asprintf "%a" Telemetry.pp_report a)
        (Format.asprintf "%a" Telemetry.pp_report b);
      Sys.remove path;
      Sys.remove keyed)
    [ "roundtrip_test.jsonl"; "roundtrip_test.json" ]

(* A malformed trace fails with its position: JSONL errors name the
   file and the 1-based line (blank lines count), the Chrome format
   names the file. A trace that parses but is not whole (cut at a line
   boundary) fails too: an unclosed span names its span_begin, and a
   missing meta line or a round count the samples do not add up to
   names the file. *)
let test_load_errors () =
  List.iter
    (fun (path, text, msg) ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      (match Telemetry.load_file path with
      | _ -> Alcotest.failf "%s: accepted" path
      | exception Failure m -> Alcotest.(check string) path msg m);
      Sys.remove path)
    [
      ( "bad_trace.jsonl",
        "{\"type\":\"meta\",\"version\":1,\"rounds\":0,\"wall\":0.0}\n\n\
         {\"type\":\"round\",\"run\":0\n",
        "bad_trace.jsonl:3: expected , or } at offset 23" );
      ( "bad_type.jsonl", "\n{\"type\":\"bogus\"}\n",
        "bad_type.jsonl:2: unknown event type \"bogus\"" );
      ( "bad_trace.json", "{\"traceEvents\":[],\"lightnet\":{\"events\":[",
        "bad_trace.json: bad number \"\" at offset 40" );
      ( "unclosed.jsonl",
        "{\"type\":\"meta\",\"version\":1,\"rounds\":0}\n\
         {\"type\":\"span_begin\",\"id\":1,\"parent\":0,\"name\":\"a\",\"r0\":0}\n\
         {\"type\":\"span_begin\",\"id\":2,\"parent\":1,\"name\":\"b\",\"r0\":0}\n",
        "unclosed.jsonl:2: span_begin 1 (\"a\") has no span_end" );
      ( "unclosed.json",
        "{\"traceEvents\":[],\"lightnet\":{\"version\":1,\"rounds\":0,\"events\":[\
         {\"type\":\"span_begin\",\"id\":1,\"parent\":0,\"name\":\"a\",\"r0\":0}]}}",
        "unclosed.json: span_begin 1 (\"a\") has no span_end" );
      ( "rounds.jsonl",
        "{\"type\":\"meta\",\"version\":1,\"rounds\":2}\n\
         {\"type\":\"round\",\"run\":0,\"round\":0,\"messages\":0,\"words\":0,\"steps\":0,\"active\":2,\"drops\":0}\n\
         {\"type\":\"round\",\"run\":0,\"round\":1,\"messages\":0,\"words\":0,\"steps\":2,\"active\":0,\"drops\":0}\n",
        "rounds.jsonl: meta declares 2 rounds, the trace has 1" );
      ("empty.jsonl", "", "empty.jsonl: no meta line");
    ]

let test_leaf_coverage () =
  let tr = spanner_recording () in
  let cov = Option.get (Telemetry.leaf_round_coverage tr) in
  Alcotest.(check bool) "leaf spans cover >= 95% of rounds" true (cov >= 0.95);
  Alcotest.(check bool) "coverage is a fraction" true (cov <= 1.0 +. 1e-9);
  let (), empty = Telemetry.record (fun () -> ()) in
  Alcotest.(check (option (float 0.0))) "no engine rounds, no coverage" None
    (Telemetry.leaf_round_coverage empty)

(* ------------------------------------------------------------------ *)
(* Differential property: the full telemetry stream — span tree, round
   samples, link totals — is byte-identical across backends, with and
   without a fault plan. Program/graph generators mirror
   test_engine_diff.ml. *)

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

let graph_of ~n ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  let p = 0.05 +. (float_of_int (seed mod 7) /. 10.0) in
  Gen.erdos_renyi rng ~n ~p ()

let telemetry_lines ?plan backend g program =
  Engine.with_backend backend (fun () ->
      let capture () =
        let (), tr =
          Telemetry.record (fun () ->
              Telemetry.span "flood" (fun () ->
                  ignore (Engine.run ~on_round_limit:`Mark g program)))
        in
        tr
      in
      let tr =
        match plan with
        | None -> capture ()
        | Some plan ->
          Fault.reset plan;
          Engine.with_faults ~max_rounds:5_000 plan capture
      in
      Telemetry.deterministic_lines tr)

let prop_telemetry_differential =
  QCheck2.Test.make
    ~name:"telemetry stream identical on both backends (plain + faults)"
    ~count:60
    QCheck2.Gen.(triple (int_range 2 40) (int_range 0 100_000) (int_range 0 8))
    (fun (n, seed, ttl) ->
      let g = graph_of ~n ~seed in
      let program = flood_program ~seed ~ttl ~word_cap:4 in
      let plain_fast = telemetry_lines Engine.Fast g program in
      let plain_ref = telemetry_lines Engine.Reference g program in
      let plan = Fault.make ~drop_prob:0.1 ~seed:(seed land 0xFFFF) () in
      let fault_fast = telemetry_lines ~plan Engine.Fast g program in
      let fault_ref = telemetry_lines ~plan Engine.Reference g program in
      plain_fast = plain_ref && fault_fast = fault_ref
      (* Faults must actually perturb the stream for the second half of
         the property to mean anything — but only when something was
         droppable; tiny graphs can legitimately coincide, so no
         assertion on [plain <> fault] here. *))

(* Fixed QCheck seed: dune runtest must be deterministic. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7e1e |]) t

let () =
  Alcotest.run "ln_telemetry"
    [
      ( "guards",
        [
          Alcotest.test_case "engine rate helpers never inf/nan" `Quick
            test_rate_guards;
          Alcotest.test_case "link_load deterministic under ties" `Quick
            test_link_load_ties;
        ] );
      ( "spans",
        [
          Alcotest.test_case "span measures engine totals + ledger" `Quick
            test_span_ledger;
          Alcotest.test_case "round samples sum to run stats" `Quick
            test_round_samples;
          Alcotest.test_case "record is scoped and not reentrant" `Quick
            test_record_scoped;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl and chrome round-trip" `Quick
            test_export_roundtrip;
          Alcotest.test_case "malformed traces name their position" `Quick
            test_load_errors;
          Alcotest.test_case "leaf coverage on light spanner" `Quick
            test_leaf_coverage;
        ] );
      ("differential", [ qcheck prop_telemetry_differential ]);
    ]
