(* Scenario-layer tests: the declarative format round-trips through
   its canonical printer, parse errors are pinned and carry line
   numbers, and the runner executes + judges small scenarios
   deterministically (including the crash-recovery path and a
   deliberate SLO violation). *)

module Scenario = Ln_scenario.Scenario
module Runner = Ln_scenario.Runner
module Monitor = Ln_congest.Monitor

let parse_ok ?name text =
  match Scenario.parse ?name text with
  | Ok s -> s
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parse_err text =
  match Scenario.parse ~name:"t" text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let test_parse_defaults () =
  let s =
    parse_ok ~name:"d"
      "topology er n=64\nrun bfs\nrun serve\nassert verdict degraded\n"
  in
  Alcotest.(check int) "seed defaults to 0" 0 s.Scenario.seed;
  Alcotest.(check int) "max-rounds default" Scenario.default_max_rounds
    s.Scenario.max_rounds;
  (match s.Scenario.topology with
  | Scenario.Er { n = 64; p } ->
    Alcotest.(check (float 1e-9)) "er p defaults to 8/n" 0.125 p
  | _ -> Alcotest.fail "topology");
  (match s.Scenario.steps with
  | [ Scenario.Bfs { root = 0; reliable = false; retries = 32 };
      Scenario.Serve
        { tier = "cache"; workload = "zipf"; queries = 1000; cache = 64;
          stretch = None; store = None; capacity = 4;
          net_skew = 1.1 } ] ->
    ()
  | _ -> Alcotest.fail "step defaults");
  Alcotest.(check bool) "slo" true
    (s.Scenario.slos = [ Scenario.Verdict Scenario.Degraded_ok ])

let test_parse_full_and_roundtrip () =
  let text =
    "# comment\n\
     name churny\n\
     seed 11\n\
     max-rounds 5000\n\
     topology clustered clusters=3 size=8 p-in=0.4 p-out=0.05\n\
     run broadcast root=1 value=7 reliable retries=64\n\
     run mst\n\
     run serve tier=label workload=zipf:1.4 queries=500 cache=16 stretch=9\n\
     fault drop p=0.05 until=40   # trailing comment\n\
     fault link edge=3 from=2 until=9\n\
     fault crash node=5 at=2 recover=12\n\
     fault crash node=9 at=6\n\
     assert verdict correct\n\
     assert min-delivered 1.0\n\
     assert rounds 4000\n\
     assert max-stretch 9\n\
     assert p99-us 50000\n\
     assert max-retrans 500\n\
     assert min-hit-rate 0.25\n"
  in
  let s = parse_ok text in
  Alcotest.(check string) "name" "churny" s.Scenario.name;
  Alcotest.(check int) "seed" 11 s.Scenario.seed;
  Alcotest.(check int) "max-rounds" 5000 s.Scenario.max_rounds;
  Alcotest.(check int) "faults" 4 (List.length s.Scenario.faults);
  Alcotest.(check int) "slos" 7 (List.length s.Scenario.slos);
  Alcotest.(check bool) "crash window parsed" true
    (List.exists
       (function
         | Scenario.Crash_window { node = 5; at = 2; recover = Some 12 } ->
           true
         | _ -> false)
       s.Scenario.faults);
  (* The canonical printer re-parses to the same value (defaults are
     printed back concretely). *)
  Alcotest.(check bool) "to_text round-trips" true
    (Scenario.parse (Scenario.to_text s) = Ok s)

let test_parse_errors () =
  let check_msg what sub text =
    let e = parse_err text in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S mentions %S" what e sub)
      true (contains e sub)
  in
  check_msg "unknown keyword" "unknown keyword \"nope\"" "nope x\n";
  check_msg "line number" "t:3:"
    "topology er n=8\nrun bfs\nfault quake\n";
  check_msg "unknown arg" "unknown run bfs argument \"degree\""
    "topology er n=8\nrun bfs degree=3\n";
  check_msg "no serve domains" "t:2: unknown run serve argument \"domains\""
    "topology er n=8\nrun serve store=s domains=2\n";
  check_msg "flag with value" "\"reliable\" is a flag"
    "topology er n=8\nrun bfs reliable=yes\n";
  check_msg "non-integer" "expects an integer" "topology er n=many\nrun bfs\n";
  check_msg "missing topology" "missing topology" "run bfs\n";
  check_msg "no steps" "no run steps" "topology er n=8\n";
  check_msg "two drops" "more than one fault drop"
    "topology er n=8\nrun bfs\nfault drop p=0.1\nfault drop p=0.2\n";
  check_msg "bad verdict" "expects correct|degraded"
    "topology er n=8\nrun bfs\nassert verdict maybe\n";
  check_msg "duplicate topology" "duplicate topology"
    "topology er n=8\ntopology path n=4\nrun bfs\n"

let test_load_names_from_basename () =
  let path = Filename.temp_file "scn_test" ".scn" in
  let oc = open_out path in
  output_string oc "topology path n=4\nrun broadcast\n";
  close_out oc;
  let s = Scenario.load path in
  Sys.remove path;
  Alcotest.(check bool) "name from basename" true
    (String.length s.Scenario.name >= 8
    && String.sub s.Scenario.name 0 8 = "scn_test");
  Alcotest.(check bool) "no extension" true
    (Filename.extension s.Scenario.name <> ".scn")

let run_text ?name text = Runner.run (parse_ok ?name text)

let test_runner_clean_pass () =
  let r =
    run_text ~name:"clean"
      "seed 7\ntopology er n=32 p=0.2\nrun bfs\nrun broadcast value=9\n\
       assert verdict correct\nassert min-delivered 1.0\nassert max-retrans 0\n\
       assert rounds 500\n"
  in
  Alcotest.(check bool) "ok" true r.Runner.ok;
  Alcotest.(check int) "implicit + 4 declared checks" 5
    (List.length r.Runner.checks);
  Alcotest.(check bool) "all steps Correct" true
    (List.for_all
       (fun (st : Runner.step_result) ->
         st.Runner.report.Monitor.verdict = Monitor.Correct)
       r.Runner.steps);
  Alcotest.(check int) "no retrans" 0 r.Runner.retrans;
  (* Deterministic: a second run judges identically. *)
  let r2 =
    run_text ~name:"clean"
      "seed 7\ntopology er n=32 p=0.2\nrun bfs\nrun broadcast value=9\n\
       assert verdict correct\nassert min-delivered 1.0\nassert max-retrans 0\n\
       assert rounds 500\n"
  in
  Alcotest.(check bool) "replay identical" true
    (r.Runner.checks = r2.Runner.checks && r.Runner.rounds = r2.Runner.rounds)

let test_runner_crash_recovery_pass () =
  let r =
    run_text ~name:"churn"
      "seed 3\ntopology er n=32 p=0.2\n\
       run broadcast value=5 reliable retries=64\n\
       fault drop p=0.05 until=30\nfault crash node=4 at=1 recover=9\n\
       assert verdict correct\nassert min-delivered 1.0\n"
  in
  Alcotest.(check bool) "ok under churn" true r.Runner.ok;
  Alcotest.(check bool) "plan mentions the window" true
    (let s = r.Runner.plan in
     let rec go i =
       i + 12 <= String.length s
       && (String.sub s i 12 = "crash4@[1,9)" || go (i + 1))
     in
     go 0)

let test_runner_violation_fails () =
  (* Raw flood on a path under heavy loss: Wrong verdict, low delivery
     — and the judge must report per-check margins. *)
  let r =
    run_text ~name:"bad"
      "seed 2\ntopology path n=16\nrun broadcast\nfault drop p=0.4\n\
       assert verdict correct\nassert min-delivered 1.0\n"
  in
  Alcotest.(check bool) "not ok" false r.Runner.ok;
  let delivered =
    List.find
      (fun (c : Runner.check) -> c.Runner.bound = Some 1.0)
      r.Runner.checks
  in
  Alcotest.(check bool) "margin below floor" true
    (match delivered.Runner.value with Some v -> v < 1.0 | None -> false);
  Alcotest.(check bool) "verdict check fails" true
    (List.exists
       (fun (c : Runner.check) -> (not c.Runner.pass) && c.Runner.value = None)
       r.Runner.checks)

let test_runner_unmeasurable_slo_fails () =
  (* min-hit-rate with no cache-tier step must fail loudly, not pass
     vacuously. *)
  let r =
    run_text ~name:"vacuous"
      "seed 1\ntopology er n=16 p=0.3\nrun bfs\nassert min-hit-rate 0.5\n"
  in
  Alcotest.(check bool) "not ok" false r.Runner.ok;
  Alcotest.(check bool) "explained" true
    (List.exists
       (fun (c : Runner.check) ->
         c.Runner.measured = "no cache-tier serve step" && not c.Runner.pass)
       r.Runner.checks)

let test_runner_round_budget () =
  (* max-rounds caps the engine run (`Mark, not raise): the implicit
     convergence check fails, and the runner still returns a table. *)
  let r =
    run_text ~name:"capped"
      "seed 5\nmax-rounds 2\ntopology path n=24\n\
       run broadcast reliable retries=8\nfault drop p=0.2\n\
       assert verdict correct\n"
  in
  Alcotest.(check bool) "not ok" false r.Runner.ok;
  let conv = List.hd r.Runner.checks in
  Alcotest.(check bool) "convergence row fails" true (not conv.Runner.pass)

let test_runner_validation () =
  Alcotest.check_raises "root out of range"
    (Failure "oops: step 1 (bfs): root 99 out of range (n=8)") (fun () ->
      ignore
        (run_text ~name:"oops" "topology er n=8 p=0.4\nrun bfs root=99\n"));
  (* Fault schedules are range-checked against the compiled graph. *)
  Alcotest.(check bool) "crash node range" true
    (try
       ignore
         (run_text ~name:"oops2"
            "topology path n=4\nrun bfs\nfault crash node=7 at=0\n");
       false
     with Invalid_argument m -> m = "Fault.make: crash node 7 out of range (n=4)")

let test_json_and_describe () =
  let open Ln_obs.Obs_json in
  let body = "seed 1\ntopology path n=8\nrun broadcast\nassert rounds 100\n" in
  List.iter
    (fun (text, name) ->
      let j =
        try parse (Runner.json (run_text ~name:"j" text))
        with Error e -> Alcotest.failf "%s: Runner.json is not JSON: %s" name e
      in
      Alcotest.(check string) "json name" name (to_string (member "name" j));
      let checks = to_list (member "checks" j) in
      let rounds =
        List.find
          (fun c -> member "check" c = Str "assert rounds 100")
          checks
      in
      Alcotest.(check (float 0.0)) "json bound" 100.0
        (to_float (member "bound" rounds));
      Alcotest.(check bool) "json pass" true (member "pass" rounds = Bool true);
      Alcotest.(check bool) "unmeasured check has a null value" true
        (List.exists (fun c -> member "value" c = Null) checks))
    [ (body, "j"); ("name café\n" ^ body, "café") ];
  Alcotest.(check bool) "describe_slo canonical" true
    (Scenario.describe_slo (Scenario.Min_delivered 0.9) = "min-delivered 0.9")

let () =
  Alcotest.run "ln_scenario"
    [
      ( "parse",
        [
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "full grammar + round-trip" `Quick
            test_parse_full_and_roundtrip;
          Alcotest.test_case "pinned errors" `Quick test_parse_errors;
          Alcotest.test_case "load names from basename" `Quick
            test_load_names_from_basename;
        ] );
      ( "run",
        [
          Alcotest.test_case "clean scenario passes" `Quick
            test_runner_clean_pass;
          Alcotest.test_case "crash-recovery scenario passes" `Quick
            test_runner_crash_recovery_pass;
          Alcotest.test_case "violations fail with margins" `Quick
            test_runner_violation_fails;
          Alcotest.test_case "unmeasurable SLO fails" `Quick
            test_runner_unmeasurable_slo_fails;
          Alcotest.test_case "round budget marks, judge fails" `Quick
            test_runner_round_budget;
          Alcotest.test_case "validation errors" `Quick test_runner_validation;
          Alcotest.test_case "json + describe" `Quick test_json_and_describe;
        ] );
    ]
