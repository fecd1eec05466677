(* Command-line interface: generate a network, run one of the paper's
   constructions, print a quality report and the round ledger.

     lightnet spanner  --n 200 --model er --k 2 --epsilon 0.25
     lightnet slt      --n 150 --model clustered --root 0 --epsilon 0.5
     lightnet net      --n 100 --radius 50 --delta 0.5
     lightnet doubling --n 100 --model geo --epsilon 0.4
     lightnet estimate --n 120 --alpha 2.0 *)

open Lightnet

(* The graph models by name; [--model] accepts exactly these. *)
let models =
  [
    ("er", fun rng n -> Gen.erdos_renyi rng ~n ~p:(8.0 /. float_of_int n) ());
    ("dense", fun rng n -> Gen.erdos_renyi rng ~n ~p:0.3 ());
    ( "geo",
      fun rng n ->
        fst (Gen.random_geometric rng ~n ~radius:(2.0 /. Float.sqrt (float_of_int n)) ()) );
    ( "grid",
      fun rng n ->
        let side = int_of_float (Float.sqrt (float_of_int n)) in
        Gen.grid rng ~rows:side ~cols:side () );
    ("path", fun _ n -> Gen.path n);
    ( "clustered",
      fun rng n ->
        Gen.clustered rng ~clusters:(max 2 (n / 25)) ~size:25 ~p_in:0.3 ~p_out:0.02 () );
    ("heavy", fun rng n -> Gen.heavy_tailed rng ~n ~p:(8.0 /. float_of_int n) ());
  ]

(* A malformed --input file exits 1 with INVALID, as `report` does on a
   malformed trace; the loader's message starts with the path. *)
let make_graph ?input ~model ~n ~seed () =
  match input with
  | Some path -> (
    try Graph_io.load_graph path
    with Failure m ->
      Format.printf "INVALID %s@." m;
      Stdlib.exit 1)
  | None -> List.assoc model models (Random.State.make [| seed; 0xc11 |]) n

let report_common g =
  Format.printf "network: %a, hop-diameter %d, MST weight %.1f@." Graph.pp g
    (Graph.hop_diameter g) (Mst_seq.weight g)

open Cmdliner

(* A usage mistake found after parsing (a rule across options, or an
   option against the generated network): cmdliner prints it with the
   command's usage and exits 124 ([Cmd.Exit.cli_error]). Commands that
   can report one return [`Ok ()] otherwise, under [Term.ret]. *)
let usage fmt = Fmt.kstr (fun m -> `Error (true, m)) fmt

let input_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "input" ] ~docv:"FILE" ~doc:"Read the graph from a DIMACS-like file instead of generating one.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output" ] ~docv:"FILE" ~doc:"Write the resulting edge set (edge ids) to FILE.")

(* The long alias makes the conventional [--n 200] spelling work:
   cmdliner resolves it as an unambiguous prefix of [--nodes]. *)
let n_arg =
  Arg.(value & opt int 150 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of vertices.")

let model_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (m, _) -> (m, m)) models)) "er"
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Graph model: er, dense, geo, grid, path, clustered, heavy.")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

let ledger_arg =
  Arg.(value & flag & info [ "ledger" ] ~doc:"Print the per-phase round ledger.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record telemetry (phase spans, per-round timeseries, link loads) \
           and write it to FILE: Chrome trace-event JSON (open in Perfetto) \
           by default, the JSONL event log if FILE ends in .jsonl. Inspect \
           with $(b,lightnet report).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the metrics registry for this run and write its \
           deterministic JSON snapshot to FILE on completion. Inspect or \
           validate with $(b,lightnet metrics).")

(* Run [f] under the requested observability sinks. --metrics turns
   the registry on before the run and writes the snapshot after it;
   --trace records telemetry exactly as before. Given both, the
   snapshot is also embedded into the Chrome trace as counter tracks.
   All files are written before control returns, so callers may exit
   non-zero afterwards. *)
let with_obs trace metrics f =
  let traced () =
    match trace with
    | None -> f ()
    | Some path ->
      let v, t = Telemetry.record f in
      let msnap = Option.map (fun _ -> Metrics.snapshot ()) metrics in
      Telemetry.write_file ?metrics:msnap t path;
      Format.printf "trace: %d events over %d engine rounds -> %s (%s)@."
        (List.length t.Telemetry.events)
        t.Telemetry.rounds path
        (match Telemetry.leaf_round_coverage t with
        | Some c -> Printf.sprintf "leaf coverage %.1f%%" (100.0 *. c)
        | None -> "no engine rounds");
      v
  in
  match metrics with
  | None -> traced ()
  | Some path ->
    Metrics.set_on true;
    let v = traced () in
    let snap = Metrics.snapshot () in
    Metrics.write_file snap path;
    Format.printf "metrics: %d series -> %s@."
      (List.length (List.filter (fun m -> m.Metrics.stable) snap))
      path;
    v

(* --trace and --metrics as one term, shared by every command that
   runs a construction: [run f] executes [f] under the requested
   observability sinks. *)
type obs = { run : 'a. (unit -> 'a) -> 'a }

let obs_term =
  let make trace metrics = { run = (fun f -> with_obs trace metrics f) } in
  Term.(const make $ trace_arg $ metrics_arg)

let spanner_cmd =
  let run n model seed k epsilon ledger input output obs =
    let g = make_graph ?input ~model ~n ~seed () in
    report_common g;
    let sp, q = obs.run (fun () -> Quick.light_spanner ~seed ~epsilon g ~k) in
    Format.printf "light spanner: %a@." Quick.pp_quality q;
    Format.printf "  promised: stretch <= %.2f@." sp.Light_spanner.stretch_bound;
    Format.printf "  buckets: %d in case 1, %d in case 2; E' edges %d@."
      sp.Light_spanner.buckets_case1 sp.Light_spanner.buckets_case2
      sp.Light_spanner.light_bucket_edges;
    (match output with
    | Some path ->
      Graph_io.save_edge_set path sp.Light_spanner.edges;
      Format.printf "edge set written to %s@." path
    | None -> ());
    if ledger then Format.printf "%a@." Ledger.pp sp.Light_spanner.ledger
  in
  let k_arg =
    (* [--k] works as a prefix of [--k-stretch]. *)
    Arg.(value & opt int 2 & info [ "k"; "k-stretch" ] ~doc:"Stretch parameter k.")
  in
  let eps_arg = Arg.(value & opt float 0.25 & info [ "epsilon" ] ~doc:"Epsilon.") in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Build the Section-5 light spanner (Table 1 row 1).")
    Term.(
      const run $ n_arg $ model_arg $ seed_arg $ k_arg $ eps_arg $ ledger_arg
      $ input_arg $ output_arg $ obs_term)

let slt_cmd =
  let run n model seed root epsilon gamma ledger obs =
    let g = make_graph ~model ~n ~seed () in
    report_common g;
    let rng = Random.State.make [| seed; 0x51 |] in
    let t =
      obs.run (fun () ->
          match gamma with
          | Some gamma -> Slt.build_light ~rng g ~rt:root ~gamma
          | None -> Slt.build ~rng g ~rt:root ~epsilon)
    in
    Format.printf "SLT: stretch %.3f (promised %.1f), lightness %.3f (promised %.2f)@."
      (Stats.tree_root_stretch g t.Slt.tree ~root)
      t.Slt.stretch_bound
      (Stats.lightness g t.Slt.edges)
      t.Slt.lightness_bound;
    if ledger then Format.printf "%a@." Ledger.pp t.Slt.ledger
  in
  let root_arg = Arg.(value & opt int 0 & info [ "root" ] ~doc:"Root vertex.") in
  let eps_arg = Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"Epsilon.") in
  let gamma_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "gamma" ] ~doc:"Use the lightness-1+gamma regime (BFN16).")
  in
  Cmd.v
    (Cmd.info "slt" ~doc:"Build the Section-4 shallow-light tree (Table 1 row 2).")
    Term.(
      const run $ n_arg $ model_arg $ seed_arg $ root_arg $ eps_arg $ gamma_arg
      $ ledger_arg $ obs_term)

let net_cmd =
  let run n model seed radius delta ledger obs =
    let g = make_graph ~model ~n ~seed () in
    report_common g;
    let net = obs.run (fun () -> Quick.net ~seed ~delta g ~radius) in
    Format.printf
      "net: %d points in %d iterations; covering <= %.2f, separation > %.2f@."
      (List.length net.Net.points) net.Net.iterations net.Net.covering_bound
      net.Net.separation_bound;
    Format.printf "properties verified: %b@."
      (Net.is_net g ~covering:net.Net.covering_bound
         ~separation:net.Net.separation_bound net.Net.points);
    let greedy = Greedy_net.build g ~radius in
    Format.printf "greedy baseline: %d points@." (List.length greedy);
    if ledger then Format.printf "%a@." Ledger.pp net.Net.ledger
  in
  let radius_arg = Arg.(value & opt float 50.0 & info [ "radius" ] ~doc:"Delta.") in
  let delta_arg = Arg.(value & opt float 0.5 & info [ "delta" ] ~doc:"Slack delta.") in
  Cmd.v
    (Cmd.info "net" ~doc:"Build a Section-6 (alpha,beta)-net (Table 1 row 3).")
    Term.(
      const run $ n_arg $ model_arg $ seed_arg $ radius_arg $ delta_arg
      $ ledger_arg $ obs_term)

let doubling_cmd =
  let run n model seed epsilon ledger obs =
    let g = make_graph ~model ~n ~seed () in
    report_common g;
    let sp, q = obs.run (fun () -> Quick.doubling_spanner ~seed ~epsilon g) in
    Format.printf "doubling spanner: %a (%d scales, max table %d)@." Quick.pp_quality q
      sp.Doubling_spanner.scales sp.Doubling_spanner.max_table;
    if ledger then Format.printf "%a@." Ledger.pp sp.Doubling_spanner.ledger
  in
  let eps_arg = Arg.(value & opt float 0.4 & info [ "epsilon" ] ~doc:"Epsilon.") in
  Cmd.v
    (Cmd.info "doubling"
       ~doc:"Build the Section-7 doubling-graph spanner (Table 1 row 4).")
    Term.(
      const run $ n_arg $ model_arg $ seed_arg $ eps_arg $ ledger_arg $ obs_term)

let estimate_cmd =
  let run n model seed alpha obs =
    let g = make_graph ~model ~n ~seed () in
    report_common g;
    let rng = Random.State.make [| seed; 0xe5 |] in
    let est =
      obs.run (fun () ->
          let bfs =
            Telemetry.span "bfs-tree" (fun () -> fst (Bfs.tree g ~root:0))
          in
          Mst_weight.estimate ~rng g ~bfs ~alpha)
    in
    let l = Mst_seq.weight g in
    Format.printf "Psi = %.1f; Psi/L = %.2f (guaranteed in [1, %.1f]); %d levels@."
      est.Mst_weight.psi (est.Mst_weight.psi /. l) est.Mst_weight.upper_factor
      (List.length est.Mst_weight.levels)
  in
  let alpha_arg = Arg.(value & opt float 2.0 & info [ "alpha" ] ~doc:"Alpha.") in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Section-8 net-based MST weight estimation.")
    Term.(
      const run $ n_arg $ model_arg $ seed_arg $ alpha_arg $ obs_term)

(* Chaos runs: build a deterministic fault plan from --fault-seed,
   run the algorithm as a scenario step through the scenario runner's
   executor (which certifies it with Monitor), and exit non-zero on a
   Round_limit outcome or a Wrong verdict — so a chaos invocation in
   CI fails loudly and its log line (seeds + plan description in the
   ledger) replays the exact run. *)
let chaos_cmd =
  let run n model seed algo drop_prob drop_until crash_nodes link_fails
      fault_seed reliable max_retries ledger obs =
    let g = make_graph ~model ~n ~seed () in
    let n = Graph.n g in
    if crash_nodes < 0 || crash_nodes >= n then
      usage "--crash-nodes %d: the %d-node network has %d non-root nodes"
        crash_nodes n (n - 1)
    else if reliable && algo = "mst" then
      usage "--reliable: MST has no ARQ path; run --algo mst without it"
    else
    let () = report_common g in
    let frng = Random.State.make [| fault_seed; 0xfa |] in
    (* Each crash draws its round, then a non-root node; a node drawn
       twice is redrawn, so the victims are distinct. *)
    let taken = Array.make n false in
    let rec victim () =
      let v = 1 + Random.State.int frng (n - 1) in
      if taken.(v) then victim () else (taken.(v) <- true; v)
    in
    let crashes =
      List.init crash_nodes (fun _ ->
          let crash_round = Random.State.int frng 10 in
          { Fault.node = victim (); crash_round; recover_round = None })
    in
    let link_failures =
      if Graph.m g = 0 then []
      else
        List.init link_fails (fun _ ->
            {
              Fault.edge = Random.State.int frng (Graph.m g);
              from_round = Random.State.int frng 5;
              until_round =
                (if Random.State.bool frng then None
                 else Some (5 + Random.State.int frng 20));
            })
    in
    let drop_until = Option.value drop_until ~default:max_int in
    let plan =
      Fault.make ~drop_prob ~drop_until ~link_failures ~crashes
        ~seed:fault_seed ()
    in
    Format.printf "fault plan: %s@." (Fault.describe plan);
    let lg = Ledger.create () in
    Ledger.note lg ~label:"graph-seed" (string_of_int seed);
    Ledger.note lg ~label:"fault-seed" (string_of_int fault_seed);
    Ledger.note lg ~label:"fault-plan" (Fault.describe plan);
    let step =
      match algo with
      | "bfs" -> Scenario.Bfs { root = 0; reliable; retries = max_retries }
      | "broadcast" ->
        Scenario.Broadcast { root = 0; value = 42; reliable; retries = max_retries }
      | _ (* "mst": --algo is an enum *) -> Scenario.Mst
    in
    let before = Engine.snapshot_totals () in
    (* Record only around the faulty run itself; the trace is written
       before the non-zero exits below. One span over the whole run, so
       the trace's phase tree attributes the rounds even for the
       uninstrumented raw protocols. *)
    let r =
      obs.run @@ fun () ->
      Telemetry.span ("chaos/" ^ algo) @@ fun () ->
      Scenario_runner.engine_step ~max_rounds:100_000 g plan step
    in
    Option.iter (Ledger.merge lg ~prefix:"mst") r.Scenario_runner.ledger;
    Format.printf "run: outcome=%s %a%s@."
      (if r.Scenario_runner.outcome = Engine.Converged then "converged"
       else "round-limit")
      Engine.pp_perf (Engine.totals_since before)
      (Option.fold r.Scenario_runner.delivered ~none:"" ~some:(fun f ->
           Printf.sprintf ", delivered=%.1f%%" (100.0 *. f)));
    Format.printf "verdict: %a@." Monitor.pp r.Scenario_runner.report;
    if ledger then Format.printf "%a@." Ledger.pp lg;
    if r.Scenario_runner.report.Monitor.verdict = Monitor.Wrong then
      Stdlib.exit 3;
    if r.Scenario_runner.outcome = Engine.Round_limit then Stdlib.exit 2;
    `Ok ()
  in
  let algo_arg =
    let algos = [ "bfs"; "broadcast"; "mst" ] in
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) algos)) "bfs"
      & info [ "algo" ] ~docv:"ALGO" ~doc:"Algorithm: bfs, broadcast, mst.")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.1
      & info [ "drop-prob" ] ~doc:"Per-message drop probability in [0,1).")
  in
  let drop_until_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "drop-until" ]
          ~doc:"Stop random drops after this round (default: never).")
  in
  let crash_arg =
    Arg.(
      value & opt int 0
      & info [ "crash-nodes" ] ~doc:"Number of crash-stop node failures.")
  in
  let link_arg =
    Arg.(
      value & opt int 0
      & info [ "link-fails" ] ~doc:"Number of scheduled link failures.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "fault-seed" ] ~doc:"Seed for the fault plan (replayable).")
  in
  let reliable_arg =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:"Wrap the algorithm with the stop-and-wait ARQ combinator.")
  in
  let retries_arg =
    Arg.(
      value & opt int 32
      & info [ "max-retries" ] ~doc:"ARQ retries before declaring a link dead.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run an algorithm under a deterministic fault plan and certify the \
          outcome (exit 2: round limit, exit 3: wrong result).")
    Term.(
      ret
        (const run $ n_arg $ model_arg $ seed_arg $ algo_arg $ drop_arg
       $ drop_until_arg $ crash_arg $ link_arg $ fault_seed_arg $ reliable_arg
       $ retries_arg $ ledger_arg $ obs_term))

(* Artifact pipeline: `build-artifact` runs the constructions once and
   persists everything the serving side needs; `serve` never rebuilds
   — it loads, answers a workload on the chosen tier, and optionally
   certifies the answered stretch against exact distances (exit 3 on a
   Wrong verdict, mirroring chaos). *)
let build_artifact_cmd =
  let run n model seed input k epsilon slt_epsilon root output obs =
    let g = make_graph ?input ~model ~n ~seed () in
    report_common g;
    let sp, q, slt =
      obs.run (fun () ->
          let sp, q = Quick.light_spanner ~seed ~epsilon g ~k in
          let rng = Random.State.make [| seed; 0x51 |] in
          let slt = Slt.build ~rng g ~rt:root ~epsilon:slt_epsilon in
          (sp, q, slt))
    in
    let mst = Mst_seq.kruskal g in
    let params =
      [
        ("model", model);
        ("n", string_of_int (Graph.n g));
        ("seed", string_of_int seed);
        ("k", string_of_int k);
        ("epsilon", string_of_float epsilon);
        ("slt-epsilon", string_of_float slt_epsilon);
        ("slt-root", string_of_int root);
      ]
      @ (match input with Some p -> [ ("input", p) ] | None -> [])
    in
    let prefix p = List.map (fun (l, v) -> (p ^ "/" ^ l, v)) in
    let notes =
      prefix "spanner" (Ledger.notes sp.Light_spanner.ledger)
      @ prefix "slt" (Ledger.notes slt.Slt.ledger)
    in
    let art =
      Artifact.make ~graph:g ~slt_root:root
        ~spanner_stretch:sp.Light_spanner.stretch_bound
        ~spanner_edges:sp.Light_spanner.edges ~slt_edges:slt.Slt.edges
        ~mst_edges:mst ~params ~notes ()
    in
    Artifact.save output art;
    Format.printf "spanner: %a@." Quick.pp_quality q;
    Format.printf "%a@." Artifact.pp art;
    Format.printf "artifact written to %s (%d bytes)@." output
      (let st = Unix.stat output in
       st.Unix.st_size)
  in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k"; "k-stretch" ] ~doc:"Spanner stretch parameter k.")
  in
  let eps_arg =
    Arg.(value & opt float 0.25 & info [ "epsilon" ] ~doc:"Spanner epsilon.")
  in
  let slt_eps_arg =
    Arg.(value & opt float 0.5 & info [ "slt-epsilon" ] ~doc:"SLT epsilon.")
  in
  let root_arg =
    Arg.(value & opt int 0 & info [ "root" ] ~doc:"SLT root vertex.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output" ] ~docv:"FILE" ~doc:"Artifact destination file.")
  in
  Cmd.v
    (Cmd.info "build-artifact"
       ~doc:
         "Build the light spanner, SLT and MST once and persist them as a \
          versioned binary artifact for $(b,lightnet serve).")
    Term.(
      const run $ n_arg $ model_arg $ seed_arg $ input_arg $ k_arg $ eps_arg
      $ slt_eps_arg $ root_arg $ out_arg $ obs_term)

(* One artifact (positional FILE) or a whole store (--store DIR): the
   single-artifact path runs Serve.run as before; the store path
   resolves a Zipf-over-networks workload through the oracle LRU and
   serves the batch with Fleet.run. --certify replays a sample per
   network either way (exit 3 on a Wrong verdict). *)
let serve_cmd =
  let run file store queries workload tier cache seed certify stretch sample
      net_skew capacity checksum_out trace metrics metrics_every =
    let sample = if sample <= 0 then None else Some sample in
    (* Exit 1 on an artifact that does not load or that no oracle can
       serve, as `report` and `metrics` do on a malformed file. *)
    let invalid file m =
      Format.printf "INVALID %s: %s@." file m;
      Stdlib.exit 1
    in
    let serve_one file =
      let art =
        match Artifact.load file with
        | exception Failure m -> invalid file m
        | art -> art
      in
      Format.printf "%a@." Artifact.pp art;
      let oracle =
        match Oracle.create ~cache_capacity:cache art with
        | exception Invalid_argument m -> invalid file m
        | oracle -> oracle
      in
      (* --metrics-every rewrites the metrics file mid-batch, giving a
         scraper a live file to poll; the final snapshot from with_obs
         then overwrites it once the batch completes. *)
      let on_snapshot =
        match metrics with
        | Some path when metrics_every > 0 ->
          Some (fun snap -> Metrics.write_file snap path)
        | _ -> None
      in
      with_obs trace metrics @@ fun () ->
      let pairs =
        Workload.generate ~seed art.Artifact.graph workload ~count:queries
      in
      Format.printf "workload: %s, %d queries, seed %d@."
        (Workload.describe workload) queries seed;
      let outcome =
        Serve.run ~snapshot_every:metrics_every ?on_snapshot oracle ~tier pairs
      in
      Format.printf "%a@." Serve.pp_outcome outcome;
      if certify then begin
        let bound =
          match stretch with
          | Some t -> t
          | None -> art.Artifact.spanner_stretch
        in
        let cert = Serve.certify ?sample oracle ~tier ~bound pairs in
        Format.printf "certificate: %a@." Serve.pp_certificate cert;
        cert.Serve.report.Monitor.verdict = Monitor.Wrong
      end
      else false
    in
    let serve_store dir =
      let st = Store.open_dir ~capacity ~cache_capacity:cache dir in
      let s = Store.stats st in
      Format.printf "store %s: %d ready, %d quarantined (LRU capacity %d)@." dir
        s.Store.ready s.Store.quarantined capacity;
      (* Generating the workload resolves each requested network once,
         warming the store before the registry turns on; Fleet.run
         reports LRU deltas over its own batch either way. *)
      let requests =
        Fleet.workload ~seed ~net_skew st workload ~count:queries
      in
      Format.printf "workload: %s over %d network(s) (net skew %g), %d \
                     queries, seed %d@."
        (Workload.describe workload) s.Store.ready net_skew queries seed;
      with_obs trace metrics @@ fun () ->
      let outcome = Fleet.run st ~tier requests in
      Format.printf "%a@." Fleet.pp_outcome outcome;
      List.iter
        (fun (n : Fleet.net_outcome) ->
          Format.printf "  %s: %d queries, checksum %.17g@." n.Fleet.digest
            n.Fleet.queries n.Fleet.checksum)
        outcome.Fleet.nets;
      (match checksum_out with
      | None -> ()
      | Some path ->
        Ln_obs.Atomic_file.write path (fun oc ->
            output_string oc (Fleet.checksum_lines outcome));
        Format.printf "checksums -> %s@." path);
      if certify then
        List.fold_left
          (fun failed (digest, cert) ->
            match cert with
            | Error why ->
              Format.printf "certificate %s: ERROR %s@." digest why;
              true
            | Ok cert ->
              Format.printf "certificate %s: %a@." digest Serve.pp_certificate
                cert;
              cert.Serve.report.Monitor.verdict = Monitor.Wrong || failed)
          false
          (Fleet.certify ?sample ?bound:stretch st ~tier requests outcome)
      else false
    in
    let exit_on_failed_cert failed = if failed then Stdlib.exit 3 else `Ok () in
    match (file, store) with
    | Some _, Some _ ->
      usage "give either an ARTIFACT file or --store DIR, not both"
    | None, None -> usage "give an ARTIFACT file or --store DIR"
    | _ when cache < 1 -> usage "--cache must be at least 1"
    | _, Some _ when capacity < 1 -> usage "--capacity must be at least 1"
    | Some _, None when checksum_out <> None ->
      usage "--checksum-out needs --store"
    | Some file, None -> exit_on_failed_cert (serve_one file)
    | None, Some dir -> exit_on_failed_cert (serve_store dir)
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"ARTIFACT"
          ~doc:
            "Artifact file written by build-artifact (or serve a whole \
             $(b,--store) instead).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Serve every artifact in the store at DIR (see $(b,lightnet \
             store)) instead of a single file; requests pick networks \
             Zipf($(b,--net-skew))-style.")
  in
  let net_skew_arg =
    Arg.(
      value & opt float 1.1
      & info [ "net-skew" ] ~docv:"S"
          ~doc:
            "With --store: Zipf exponent of the over-networks distribution \
             (0 = uniform).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 8
      & info [ "capacity" ] ~docv:"K"
          ~doc:"With --store: how many loaded oracles the store LRU holds.")
  in
  let checksum_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checksum-out" ] ~docv:"FILE"
          ~doc:
            "With --store: write the per-network and total answered-distance \
             checksums to FILE; the same store, workload and seed write the \
             same bytes.")
  in
  let queries_arg =
    Arg.(value & opt int 1000 & info [ "queries" ] ~doc:"Number of queries.")
  in
  let workload_arg =
    let parse =
      Arg.parser_of_kind_of_string
        ~kind:"a workload (uniform|zipf[:S]|local[:R])" Workload.parse
    in
    Arg.(
      value
      & opt
          (conv (parse, Fmt.of_to_string Workload.describe))
          (Option.get (Workload.parse "zipf"))
      & info [ "workload" ] ~docv:"SPEC" ~absent:"zipf"
          ~doc:"Workload shape: uniform, zipf[:S] (skew S), local[:R] (hop radius R).")
  in
  let tier_arg =
    let parse =
      Arg.parser_of_kind_of_string ~kind:"a tier (spanner|label|cache)"
        Oracle.tier_of_string
    in
    Arg.(
      value
      & opt (conv (parse, Fmt.of_to_string Oracle.tier_name)) Oracle.Cache
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "Query tier: spanner (exact Dijkstra on H per query), label \
             (O(1) SLT tree labels), cache (Dijkstra-on-H through the \
             single-source LRU).")
  in
  let cache_arg =
    Arg.(
      value & opt int 64
      & info [ "cache" ] ~docv:"CAP" ~doc:"Source-cache capacity (tier: cache).")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Replay a sample of answers against exact distances on G and \
             fail (exit 3) if any exceeds the stretch bound.")
  in
  let stretch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "stretch" ] ~docv:"T"
          ~doc:
            "Certification bound (default: the artifact's promised spanner \
             stretch; set explicitly when certifying the label tier).")
  in
  let sample_arg =
    Arg.(
      value & opt int 256
      & info [ "sample" ]
          ~doc:"How many answers to certify (0 = the whole workload).")
  in
  let every_arg =
    Arg.(
      value & opt int 0
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:
            "With $(b,--metrics): rewrite the metrics file after every N \
             answered queries, so an external scraper sees live counters \
             mid-batch (0 = only on completion).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a distance-query workload from one artifact (positional \
          FILE) or a whole $(b,--store) of them, reporting throughput, \
          latency percentiles and (with --certify) a stretch certificate \
          per network.")
    Term.(
      ret
        (const run $ file_arg $ store_arg $ queries_arg $ workload_arg $ tier_arg
       $ cache_arg $ seed_arg $ certify_arg $ stretch_arg $ sample_arg
       $ net_skew_arg $ capacity_arg $ checksum_out_arg $ trace_arg
       $ metrics_arg $ every_arg))

(* Store maintenance. Every subcommand exits 0 on a healthy store;
   verify (and add, on unreadable inputs) exits 1 so CI can gate on
   store integrity the same way it gates on `lightnet metrics`. *)
let store_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir"; "store" ] ~docv:"DIR" ~doc:"Store directory.")
  in
  let open_store dir = Store.open_dir dir in
  let ls_cmd =
    let run dir =
      let st = open_store dir in
      List.iter
        (fun (e : Store.entry) ->
          Format.printf "%s  %8d bytes  %s@." e.Store.digest e.Store.bytes
            (match e.Store.status with
            | Store.Ready -> "ready"
            | Store.Quarantined why -> "QUARANTINED: " ^ why))
        (Store.ls st);
      let s = Store.stats st in
      Format.printf "store %s: %d ready, %d quarantined@." dir s.Store.ready
        s.Store.quarantined
    in
    Cmd.v
      (Cmd.info "ls" ~doc:"List every artifact in the store with its status.")
      Term.(const run $ dir_arg)
  in
  let add_cmd =
    let run dir files =
      let st = open_store dir in
      let failed =
        List.fold_left
          (fun failed file ->
            match Store.add st file with
            | Ok (digest, `Added) ->
              Format.printf "added %s (from %s)@." digest file;
              failed
            | Ok (digest, `Duplicate) ->
              Format.printf "duplicate %s (from %s)@." digest file;
              failed
            | Error why ->
              Format.printf "ERROR %s: %s@." file why;
              true)
          false files
      in
      if failed then Stdlib.exit 1
    in
    let files_arg =
      Arg.(
        non_empty & pos_all string []
        & info [] ~docv:"FILE" ~doc:"Artifact files written by build-artifact.")
    in
    Cmd.v
      (Cmd.info "add"
         ~doc:
           "Validate artifact files and ingest them under their canonical \
            digest names (idempotent; exit 1 on an invalid input).")
      Term.(const run $ dir_arg $ files_arg)
  in
  let verify_cmd =
    let run dir =
      let st = open_store dir in
      let results = Store.verify st in
      let failed =
        List.fold_left
          (fun failed (digest, r) ->
            match r with
            | Ok () ->
              Format.printf "%s OK@." digest;
              failed
            | Error why ->
              Format.printf "%s FAILED: %s@." digest why;
              true)
          false results
      in
      Format.printf "verified %d artifact(s)@." (List.length results);
      if failed then Stdlib.exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-read every artifact end to end (format, checksum, digest); \
            quarantine and exit 1 on any failure.")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let run dir =
      let st = open_store dir in
      let n = Store.gc st in
      Format.printf "gc: removed %d quarantined artifact(s)@." n
    in
    Cmd.v
      (Cmd.info "gc" ~doc:"Delete quarantined artifact files from the store.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Manage a digest-keyed artifact store (the $(b,serve --store) \
          substrate): list, ingest, verify, collect.")
    [ ls_cmd; add_cmd; verify_cmd; gc_cmd ]

(* Scenario suite: load declarative .scn files, execute each through
   the engine stack and print its per-assertion table. A scenario that
   fails its assertions is a violation unless named in
   --expect-violation (in which case *passing* is the violation: the
   fixture exists to prove the harness can fail). Any violation exits
   5, so CI runs the whole committed suite in one invocation. *)
let scenario_cmd =
  let run files dir expect json_path obs =
    let from_dir =
      match dir with
      | None -> []
      | Some d ->
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".scn")
        |> List.sort compare
        |> List.map (Filename.concat d)
    in
    match files @ from_dir with
    | [] -> usage "no scenarios: give FILE... and/or --dir DIR"
    | files ->
    let outcomes =
      obs.run @@ fun () ->
      List.map
        (fun path ->
          let name = Filename.remove_extension (Filename.basename path) in
          match Scenario_runner.run (Scenario.load path) with
          | r ->
            Format.printf "%a@." Scenario_runner.pp r;
            (name, Ok r)
          | exception (Failure m | Invalid_argument m | Sys_error m) ->
            Format.printf "scenario %s: ERROR %s@." name m;
            (name, Error m))
        files
    in
    (match json_path with
    | None -> ()
    | Some p ->
      Ln_obs.Atomic_file.write p (fun oc ->
          output_string oc "[\n";
          List.iteri
            (fun i (name, o) ->
              if i > 0 then output_string oc ",\n";
              match o with
              | Ok r -> output_string oc (Scenario_runner.json r)
              | Error m ->
                output_string oc
                  Obs_json.(
                    to_text ~compact:true
                      (Obj [ ("name", Str name); ("ok", Bool false); ("error", Str m) ])))
            outcomes;
          output_string oc "\n]\n");
      Format.printf "wrote %s@." p);
    let violations =
      List.filter_map
        (fun (name, o) ->
          let expected = List.mem name expect in
          let passed =
            match o with Ok r -> r.Scenario_runner.ok | Error _ -> false
          in
          match (passed, expected) with
          | true, true -> Some (name ^ " (expected a violation, but it passed)")
          | false, false -> Some name
          | _ -> None)
        outcomes
    in
    List.iter (fun v -> Format.printf "VIOLATION: %s@." v) violations;
    Format.printf "scenarios: %d run, %d violation%s@." (List.length outcomes)
      (List.length violations)
      (if List.length violations = 1 then "" else "s");
    if violations <> [] then Stdlib.exit 5;
    `Ok ()
  in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Scenario files (.scn).")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Also run every .scn file in DIR (sorted by name).")
  in
  let expect_arg =
    Arg.(
      value & opt_all string []
      & info [ "expect-violation" ] ~docv:"NAME"
          ~doc:
            "Scenario NAME is expected to fail its assertions; it passing is \
             then the violation. Repeatable.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write per-scenario verdicts, rounds, drops, retransmissions and \
             SLO margins to FILE as a JSON array.")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run declarative chaos scenarios and judge their SLO assertions \
          (exit 5 on any violation: a scenario failing, or an \
          $(b,--expect-violation) scenario passing).")
    Term.(
      ret (const run $ files_arg $ dir_arg $ expect_arg $ json_arg $ obs_term))

(* Exit 1 on a malformed trace, as `lightnet metrics` does; the
   loader's message starts with the file name (and, for JSONL, the
   line). *)
let report_cmd =
  let run file min_coverage =
    match Telemetry.load_file file with
    | exception Failure m ->
      Format.printf "INVALID %s@." m;
      Stdlib.exit 1
    | t -> (
      Format.printf "%a" Telemetry.pp_report t;
      match (min_coverage, Telemetry.leaf_round_coverage t) with
      | Some thr, None when thr > 0.0 ->
        Format.printf
          "FAIL: trace has no engine rounds, so no leaf span coverage \
           (required %.3f)@."
          thr;
        Stdlib.exit 4
      | Some thr, Some c when c < thr ->
        Format.printf "FAIL: leaf span coverage %.3f below required %.3f@." c thr;
        Stdlib.exit 4
      | _ -> ())
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by --trace (.json or .jsonl).")
  in
  let cov_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-coverage" ] ~docv:"FRACTION"
          ~doc:
            "Fail (exit 4) if less than this fraction of recorded engine \
             rounds is attributed to leaf phase spans, or if a positive \
             $(docv) is asked of a trace with no engine rounds.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Pretty-print a captured telemetry trace (phase tree, coverage, edge-load histogram).")
    Term.(const run $ file_arg $ cov_arg)

(* Inspect a snapshot written by --metrics: parse it back through
   Metrics.of_json (so this doubles as a round-trip check) and print
   one line per series. Exit 1 on a malformed file, so CI can gate on
   `lightnet metrics FILE`. *)
let metrics_cmd =
  let run file =
    match Metrics.of_json (In_channel.with_open_bin file In_channel.input_all) with
    | exception Failure m ->
      Format.printf "INVALID %s: %s@." file m;
      Stdlib.exit 1
    | snap ->
      Format.printf "%a" Metrics.pp snap;
      Format.printf "metrics: %d series OK (JSON snapshot)@." (List.length snap)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"JSON snapshot written by --metrics.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Validate and pretty-print a metrics snapshot written by \
          $(b,--metrics) (exit 1 if the file is malformed).")
    Term.(const run $ file_arg)

let gen_cmd =
  let run n model seed output =
    let g = make_graph ~model ~n ~seed () in
    report_common g;
    Graph_io.save_graph output g;
    Format.printf "graph written to %s@." output
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "output" ] ~docv:"FILE" ~doc:"Destination file.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph and write it to a file.")
    Term.(const run $ n_arg $ model_arg $ seed_arg $ out_arg)

let () =
  let doc = "Distributed construction of light networks (PODC 2020), simulated." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lightnet" ~doc)
          [
            spanner_cmd;
            slt_cmd;
            net_cmd;
            doubling_cmd;
            estimate_cmd;
            chaos_cmd;
            scenario_cmd;
            build_artifact_cmd;
            serve_cmd;
            store_cmd;
            report_cmd;
            metrics_cmd;
            gen_cmd;
          ]))
