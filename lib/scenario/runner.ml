module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Graph_io = Ln_graph.Graph_io
module Mst_seq = Ln_graph.Mst_seq
module Engine = Ln_congest.Engine
module Fault = Ln_congest.Fault
module Monitor = Ln_congest.Monitor
module Telemetry = Ln_congest.Telemetry
module Bfs = Ln_prim.Bfs
module Broadcast = Ln_prim.Broadcast
module Dist_mst = Ln_mst.Dist_mst
module Slt = Ln_slt.Slt
module Light_spanner = Ln_spanner.Light_spanner
module Artifact = Ln_route.Artifact
module Oracle = Ln_route.Oracle
module Workload = Ln_route.Workload
module Serve = Ln_route.Serve
module Store = Ln_store.Store
module Fleet = Ln_store.Fleet
module Metrics = Ln_obs.Metrics

type engine_result = {
  report : Monitor.report;
  outcome : Engine.outcome;
  delivered : float option;
  ledger : Ln_congest.Ledger.t option;
}

type step_result = {
  label : string;
  report : Monitor.report;
  outcome : Engine.outcome;
  delivered : float option;
  p99_us : float option;
  hit_rate : float option;
  max_stretch : float option;
}

type check = {
  label : string;
  measured : string;
  value : float option;
  bound : float option;
  pass : bool;
}

type result = {
  scenario : Scenario.t;
  nodes : int;
  edges : int;
  plan : string;
  steps : step_result list;
  rounds : int;
  drops : int;
  retrans : int;
  checks : check list;
  ok : bool;
}

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Compilation. *)

let graph_of (s : Scenario.t) =
  let rng = Random.State.make [| s.seed; 0x5ce |] in
  match s.topology with
  | Er { n; p } -> Gen.erdos_renyi rng ~n ~p ()
  | Geo { n; radius } -> fst (Gen.random_geometric rng ~n ~radius ())
  | Grid { rows; cols } -> Gen.grid rng ~rows ~cols ()
  | Path n -> Gen.path n
  | Clustered { clusters; size; p_in; p_out } ->
    Gen.clustered rng ~clusters ~size ~p_in ~p_out ()
  | Rmat { scale; edge_factor } ->
    (* RMAT draws are generally disconnected; scenarios certify floods
       against the whole network, so stitch the components. *)
    Gen.ensure_connected rng (Gen.rmat rng ~scale ~edge_factor ())
  | File path -> Graph_io.load_graph path
  | Artifact_file path -> (Artifact.load path).Artifact.graph

let plan_of (s : Scenario.t) g =
  let drop_prob, drop_until =
    match
      List.find_map
        (function
          | Scenario.Drop { p; until } ->
            Some (p, Option.value until ~default:max_int)
          | _ -> None)
        s.faults
    with
    | Some d -> d
    | None -> (0.0, max_int)
  in
  let link_failures =
    List.filter_map
      (function
        | Scenario.Link_window { edge; from_; until } ->
          Some { Fault.edge; from_round = from_; until_round = until }
        | _ -> None)
      s.faults
  in
  let crashes =
    List.filter_map
      (function
        | Scenario.Crash_window { node; at; recover } ->
          Some { Fault.node; crash_round = at; recover_round = recover }
        | _ -> None)
      s.faults
  in
  Fault.make ~drop_prob ~drop_until ~link_failures ~crashes ~graph:g
    ~seed:s.seed ()

let step_kind = function
  | Scenario.Bfs { reliable; _ } -> if reliable then "bfs+arq" else "bfs"
  | Scenario.Broadcast { reliable; _ } ->
    if reliable then "broadcast+arq" else "broadcast"
  | Scenario.Mst -> "mst"
  | Scenario.Serve { tier; _ } -> "serve:" ^ tier

(* Everything that can make a scenario unexecutable is rejected here,
   before any engine run, so a bad scenario fails in one piece instead
   of half-way through its step list. *)
let validate (s : Scenario.t) g =
  let n = Graph.n g in
  List.iteri
    (fun i step ->
      let where = Printf.sprintf "%s: step %d (%s)" s.name (i + 1) (step_kind step) in
      match step with
      | Scenario.Bfs { root; _ } | Scenario.Broadcast { root; _ } ->
        if root < 0 || root >= n then
          fail "%s: root %d out of range (n=%d)" where root n
      | Scenario.Mst -> ()
      | Scenario.Serve { tier; workload; queries; cache; store; capacity; _ } ->
        if Oracle.tier_of_string tier = None then
          fail "%s: unknown tier %S (spanner|label|cache)" where tier;
        if Workload.parse workload = None then
          fail "%s: unknown workload %S (uniform|zipf[:S]|local[:R])" where
            workload;
        if queries < 1 then fail "%s: queries must be >= 1" where;
        if cache < 1 then fail "%s: cache must be >= 1" where;
        (match store with
        | None -> ()
        | Some dir ->
          if not (Sys.file_exists dir && Sys.is_directory dir) then
            fail "%s: store %S is not a directory" where dir;
          if capacity < 1 then fail "%s: capacity must be >= 1" where))
    s.steps

(* The serving steps of a generated-topology scenario get a small
   in-memory artifact (spanner + SLT + MST built once, on demand) —
   the same pipeline as [lightnet build-artifact], minus the file. *)
let build_artifact (s : Scenario.t) g =
  let rng = Random.State.make [| s.seed; 0xa27 |] in
  let sp = Light_spanner.build ~rng g ~k:2 ~epsilon:0.25 in
  let slt = Slt.build ~rng g ~rt:0 ~epsilon:0.5 in
  Artifact.make ~graph:g ~slt_root:0
    ~spanner_stretch:sp.Light_spanner.stretch_bound
    ~spanner_edges:sp.Light_spanner.edges ~slt_edges:slt.Slt.edges
    ~mst_edges:(Mst_seq.kruskal g) ()

let delivered_fraction plan n reached =
  let surv = ref 0 and got = ref 0 in
  for v = 0 to n - 1 do
    if Fault.surviving_node plan v then begin
      incr surv;
      if reached v then incr got
    end
  done;
  if !surv = 0 then 1.0 else float_of_int !got /. float_of_int !surv

(* ------------------------------------------------------------------ *)
(* Step execution. *)

let verdict_rank = function
  | Monitor.Correct -> 0
  | Monitor.Degraded -> 1
  | Monitor.Wrong -> 2

let engine_step ~max_rounds g plan step =
  let under f = Engine.with_faults ~max_rounds plan f in
  let flood report (stats : Engine.stats) reached =
    {
      report;
      outcome = stats.Engine.outcome;
      delivered = Some (delivered_fraction plan (Graph.n g) reached);
      ledger = None;
    }
  in
  match step with
  | Scenario.Bfs { root; reliable; retries } ->
    let dist, stats =
      under (fun () ->
          if reliable then Bfs.layers_reliable ~max_retries:retries g ~root
          else Bfs.layers g ~root)
    in
    flood (Monitor.bfs g plan ~root ~dist) stats (fun v -> dist.(v) >= 0)
  | Scenario.Broadcast { root; value; reliable; retries } ->
    let got, stats =
      under (fun () ->
          if reliable then
            Broadcast.flood_reliable ~max_retries:retries g ~root ~value
          else Broadcast.flood g ~root ~value)
    in
    flood
      (Monitor.broadcast g plan ~root ~value ~got)
      stats
      (fun v -> got.(v) = Some value)
  | Scenario.Mst -> (
    let before = Engine.snapshot_totals () in
    try
      let mst = under (fun () -> Dist_mst.run ~root:0 g) in
      let p = Engine.totals_since before in
      {
        report = Monitor.spanning_forest g plan ~edges:mst.Dist_mst.mst_edges;
        (* Aggregated over the pipeline's runs: any sub-run that hit
           the `Mark cap pushes the total past it. *)
        outcome =
          (if p.Engine.rounds >= max_rounds then Engine.Round_limit
           else Engine.Converged);
        delivered = None;
        ledger = Some mst.Dist_mst.ledger;
      }
    with e ->
      {
        report =
          { Monitor.verdict = Monitor.Wrong;
            detail = "raised " ^ Printexc.to_string e };
        outcome = Engine.Round_limit;
        delivered = None;
        ledger = None;
      })
  | Scenario.Serve _ ->
    invalid_arg "Runner.engine_step: a serve step does not run on the engine"

let run_step (s : Scenario.t) g plan art idx step =
  let label = Printf.sprintf "%d:%s" (idx + 1) (step_kind step) in
  Telemetry.span ("step/" ^ label) @@ fun () ->
  let report, outcome, delivered, (p99_us, hit_rate, max_stretch) =
    match step with
    | Scenario.Bfs _ | Scenario.Broadcast _ | Scenario.Mst ->
      let r = engine_step ~max_rounds:s.max_rounds g plan step in
      (r.report, r.outcome, r.delivered, (None, None, None))
    | Scenario.Serve
        { tier; workload; queries; cache; stretch; store = None; _ } ->
      let a = Lazy.force art in
      let tier = Option.get (Oracle.tier_of_string tier) in
      let spec = Option.get (Workload.parse workload) in
      let oracle = Oracle.create ~cache_capacity:cache a in
      let pairs =
        Workload.generate ~seed:s.seed a.Artifact.graph spec ~count:queries
      in
      let outcome = Serve.run oracle ~tier pairs in
      let bound = Option.value stretch ~default:a.Artifact.spanner_stretch in
      let cert = Serve.certify ~sample:256 oracle ~tier ~bound pairs in
      ( cert.Serve.report,
        Engine.Converged,
        None,
        ( Some outcome.Serve.latency.Serve.p99_us,
          (if tier = Oracle.Cache then Some (Serve.hit_rate outcome) else None),
          Some cert.Serve.max_stretch ) )
    | Scenario.Serve
        { tier; workload; queries; cache; stretch; store = Some dir;
          capacity; net_skew } ->
      (* The fleet form ignores the topology's artifact: the store is
         the workload. min-hit-rate reads the store's oracle-LRU hit
         rate (whole networks moving in and out of memory), and the
         certificate is the worst over every served network. *)
      let tier = Option.get (Oracle.tier_of_string tier) in
      let spec = Option.get (Workload.parse workload) in
      let st = Store.open_dir ~capacity ~cache_capacity:cache dir in
      let requests =
        Fleet.workload ~seed:s.seed ~net_skew st spec ~count:queries
      in
      let outcome = Fleet.run st ~tier requests in
      let worse a b =
        if verdict_rank b.Monitor.verdict > verdict_rank a.Monitor.verdict
        then b
        else a
      in
      let report, max_stretch =
        List.fold_left
          (fun (rep, ms) (digest, cert) ->
            match cert with
            | Error why ->
              ( worse rep
                  { Monitor.verdict = Monitor.Wrong; detail = digest ^ ": " ^ why },
                ms )
            | Ok cert ->
              (worse rep cert.Serve.report, Float.max ms cert.Serve.max_stretch))
          ( {
              Monitor.verdict = Monitor.Correct;
              detail =
                Printf.sprintf "%d network(s) certified" outcome.Fleet.networks;
            },
            1.0 )
          (Fleet.certify ~sample:64 ?bound:stretch st ~tier requests outcome)
      in
      let report =
        if outcome.Fleet.skipped > 0 && report.Monitor.verdict = Monitor.Correct
        then
          {
            Monitor.verdict = Monitor.Degraded;
            detail =
              Printf.sprintf "%d request(s) skipped (quarantined networks)"
                outcome.Fleet.skipped;
          }
        else report
      in
      ( report,
        Engine.Converged,
        None,
        ( Some outcome.Fleet.latency.Serve.p99_us,
          Some (Fleet.store_hit_rate outcome),
          Some max_stretch ) )
  in
  { label; report; outcome; delivered; p99_us; hit_rate; max_stretch }

(* ------------------------------------------------------------------ *)
(* Judging. *)

let le_check label v bound measured =
  { label; measured; value = Some v; bound = Some bound; pass = v <= bound }

let ge_check label v bound measured =
  { label; measured; value = Some v; bound = Some bound; pass = v >= bound }

let missing label why =
  { label; measured = why; value = None; bound = None; pass = false }

let max_of = List.fold_left max neg_infinity
let min_of = List.fold_left min infinity

let judge (s : Scenario.t) steps ~rounds ~retrans =
  let stuck =
    List.filter_map
      (fun r -> if r.outcome = Engine.Round_limit then Some r.label else None)
      steps
  in
  let convergence =
    {
      label = "steps converge";
      measured =
        (if stuck = [] then "all converged"
         else "round-limit in " ^ String.concat ", " stuck);
      value = None;
      bound = None;
      pass = stuck = [];
    }
  in
  let worst =
    List.fold_left
      (fun w r -> max w (verdict_rank r.report.Monitor.verdict))
      0 steps
  in
  let worst_name =
    Monitor.verdict_name
      (if worst = 0 then Monitor.Correct
       else if worst = 1 then Monitor.Degraded
       else Monitor.Wrong)
  in
  let of_slo slo =
    let label = "assert " ^ Scenario.describe_slo slo in
    match slo with
    | Scenario.Verdict floor ->
      let limit = match floor with Scenario.Correct_only -> 0 | Scenario.Degraded_ok -> 1 in
      {
        label;
        measured = "worst verdict " ^ worst_name;
        value = None;
        bound = None;
        pass = worst <= limit;
      }
    | Scenario.Rounds n ->
      le_check label (float_of_int rounds) (float_of_int n)
        (Printf.sprintf "%d <= %d" rounds n)
    | Scenario.Max_retrans n ->
      le_check label (float_of_int retrans) (float_of_int n)
        (Printf.sprintf "%d <= %d" retrans n)
    | Scenario.Max_stretch b -> (
      match List.filter_map (fun r -> r.max_stretch) steps with
      | [] -> missing label "no serve step"
      | l ->
        let v = max_of l in
        le_check label v b (Printf.sprintf "%.3f <= %g" v b))
    | Scenario.P99_us b -> (
      match List.filter_map (fun r -> r.p99_us) steps with
      | [] -> missing label "no serve step"
      | l ->
        let v = max_of l in
        le_check label v b (Printf.sprintf "%.1f <= %g" v b))
    | Scenario.Min_delivered b -> (
      match List.filter_map (fun r -> r.delivered) steps with
      | [] -> missing label "no flood step"
      | l ->
        let v = min_of l in
        ge_check label v b (Printf.sprintf "%.3f >= %g" v b))
    | Scenario.Min_hit_rate b -> (
      match List.filter_map (fun r -> r.hit_rate) steps with
      | [] -> missing label "no cache-tier serve step"
      | l ->
        let v = min_of l in
        ge_check label v b (Printf.sprintf "%.3f >= %g" v b))
  in
  convergence :: List.map of_slo s.slos

(* ------------------------------------------------------------------ *)
(* Registry gauges: a fleet scraping a long scenario sweep sees the
   latest verdict and how much SLO headroom is left. Margins are
   signed slack in the bound's own unit (positive = passing). p99
   margins are wall-clock-derived, hence registered unstable so they
   stay out of deterministic JSON snapshots. *)

let slo_kind = function
  | Scenario.Verdict _ -> "verdict"
  | Scenario.Rounds _ -> "rounds"
  | Scenario.Max_retrans _ -> "max_retrans"
  | Scenario.Max_stretch _ -> "max_stretch"
  | Scenario.P99_us _ -> "p99_us"
  | Scenario.Min_delivered _ -> "min_delivered"
  | Scenario.Min_hit_rate _ -> "min_hit_rate"

let record_metrics (r : result) =
  if Metrics.on () then begin
    let labels = [ ("scenario", r.scenario.Scenario.name) ] in
    Metrics.set
      (Metrics.gauge ~help:"1 if every check of the last run passed."
         ~labels "lightnet_scenario_ok")
      (if r.ok then 1.0 else 0.0);
    Metrics.add
      (Metrics.counter ~help:"Scenario checks evaluated." ~labels
         "lightnet_scenario_checks_total")
      (List.length r.checks);
    Metrics.add
      (Metrics.counter ~help:"Scenario checks failed." ~labels
         "lightnet_scenario_check_failures_total")
      (List.length (List.filter (fun c -> not c.pass) r.checks));
    (* [judge] emits the convergence check first, then one check per
       SLO in order; walk the two lists in lockstep for the margins. *)
    match r.checks with
    | [] -> ()
    | _convergence :: slo_checks ->
      List.iter2
        (fun slo c ->
          match (c.value, c.bound) with
          | Some v, Some b ->
            let margin, stable =
              match slo with
              | Scenario.Min_delivered _ | Scenario.Min_hit_rate _ ->
                (v -. b, true)
              | Scenario.P99_us _ -> (b -. v, false)
              | _ -> (b -. v, true)
            in
            Metrics.set
              (Metrics.gauge ~stable
                 ~help:"Signed SLO slack of the last run (positive = passing)."
                 ~labels:(("slo", slo_kind slo) :: labels)
                 "lightnet_scenario_slo_margin")
              margin
          | _ -> ())
        r.scenario.Scenario.slos slo_checks
  end

let run (s : Scenario.t) =
  Telemetry.span ("scenario/" ^ s.name) @@ fun () ->
  let source =
    match s.topology with
    | Scenario.Artifact_file path -> `Artifact (Artifact.load path)
    | _ -> `Graph (graph_of s)
  in
  let g =
    match source with `Artifact a -> a.Artifact.graph | `Graph g -> g
  in
  validate s g;
  let plan = plan_of s g in
  let art =
    lazy
      (match source with `Artifact a -> a | `Graph g -> build_artifact s g)
  in
  let before = Engine.snapshot_totals () in
  let steps = List.mapi (run_step s g plan art) s.steps in
  let p = Engine.totals_since before in
  let checks =
    judge s steps ~rounds:p.Engine.rounds ~retrans:p.Engine.retransmissions
  in
  let r =
    {
      scenario = s;
      nodes = Graph.n g;
      edges = Graph.m g;
      plan = Fault.describe plan;
      steps;
      rounds = p.Engine.rounds;
      drops = p.Engine.dropped_messages;
      retrans = p.Engine.retransmissions;
      checks;
      ok = List.for_all (fun c -> c.pass) checks;
    }
  in
  record_metrics r;
  r

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let pp ppf r =
  let open Format in
  fprintf ppf "scenario %s: seed %d, %d nodes, %d edges@." r.scenario.Scenario.name
    r.scenario.Scenario.seed r.nodes r.edges;
  fprintf ppf "  plan: %s@." r.plan;
  List.iter
    (fun (st : step_result) ->
      fprintf ppf "  step %-18s %-8s %s%s@." st.label
        (Monitor.verdict_name st.report.Monitor.verdict)
        st.report.Monitor.detail
        (match st.delivered with
        | Some f -> sprintf " (delivered %.1f%%)" (100.0 *. f)
        | None -> ""))
    r.steps;
  fprintf ppf "  %-36s %-34s %s@." "CHECK" "MEASURED" "RESULT";
  List.iter
    (fun c ->
      fprintf ppf "  %-36s %-34s %s@." c.label c.measured
        (if c.pass then "pass" else "FAIL"))
    r.checks;
  fprintf ppf "  %s: rounds %d, drops %d, retransmissions %d@."
    (if r.ok then "PASS" else "FAIL")
    r.rounds r.drops r.retrans

let json r =
  let open Ln_obs.Obs_json in
  let num = function None -> Null | Some f -> Num f in
  to_text ~compact:true
    (Obj
       [
         ("name", Str r.scenario.Scenario.name);
         ("seed", Int r.scenario.Scenario.seed);
         ("ok", Bool r.ok);
         ("nodes", Int r.nodes);
         ("edges", Int r.edges);
         ("rounds", Int r.rounds);
         ("drops", Int r.drops);
         ("retransmissions", Int r.retrans);
         ("plan", Str r.plan);
         ( "steps",
           Arr
             (List.map
                (fun (st : step_result) ->
                  Obj
                    [
                      ("label", Str st.label);
                      ("verdict", Str (Monitor.verdict_name st.report.Monitor.verdict));
                      ("converged", Bool (st.outcome = Engine.Converged));
                    ])
                r.steps) );
         ( "checks",
           Arr
             (List.map
                (fun c ->
                  Obj
                    [
                      ("check", Str c.label);
                      ("measured", Str c.measured);
                      ("value", num c.value);
                      ("bound", num c.bound);
                      ("pass", Bool c.pass);
                    ])
                r.checks) );
       ])
