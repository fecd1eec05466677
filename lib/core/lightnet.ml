(** Public umbrella API for the light-networks library.

    This re-exports every sub-library under one namespace and adds a
    small convenience layer ({!Quick}) for one-call constructions with
    quality reports. The organisation mirrors the paper:

    - {!Graph}, {!Paths}, {!Mst_seq}, {!Tree}, {!Euler}, {!Gen},
      {!Metric}, {!Stats} — the sequential graph substrate;
    - {!Engine}, {!Ledger}, {!Fault}, {!Reliable}, {!Monitor} — the
      CONGEST simulator, round ledger, and chaos layer;
    - {!Bfs}, {!Broadcast}, {!Keyed}, {!Exchange}, {!Forest},
      {!Tree_frags} — distributed primitives (Lemma 1 etc.);
    - {!Dist_mst}, {!Fragments}, {!Boruvka} — the two-phase MST;
    - {!Euler_dist}, {!Tour_table} — Section 3 (the Euler tour);
    - {!Bellman_ford}, {!Hub_sssp} — shortest-path machinery
      (substitutes for BKKL17 / EN16, see DESIGN.md);
    - {!Slt}, {!Kry95} — Section 4;
    - {!Light_spanner}, {!Baswana_sen}, {!En17}, {!Greedy},
      {!Buckets}, {!Cluster_sim}, {!Intervals} — Section 5;
    - {!Net}, {!Le_list}, {!Greedy_net} — Section 6;
    - {!Doubling_spanner} — Section 7;
    - {!Mst_weight} — Section 8 (the estimator behind the lower
      bound);
    - {!Artifact}, {!Labels}, {!Oracle}, {!Workload}, {!Serve},
      {!Rmq} — the route-oracle serving layer (persisted artifacts
      and the cached query engine, see DESIGN.md "Query serving &
      artifacts");
    - {!Store}, {!Fleet} — the many-networks serving tier: a
      digest-keyed artifact store with an LRU of loaded oracles,
      and the fleet driver that serves multi-network batches from it
      (see DESIGN.md "Serving fleet");
    - {!Scenario}, {!Scenario_runner} — declarative chaos scenarios:
      topology + workload + fault schedule + SLO assertions in one
      value, compiled onto the stack above and judged by the
      certifiers (see DESIGN.md "Scenario layer");
    - {!Metrics}, {!Obs_json} — the always-on observability substrate:
      one-domain counters/gauges/histograms with a deterministic JSON
      export (see DESIGN.md "Metrics registry"). *)

module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths
module Mst_seq = Ln_graph.Mst_seq
module Tree = Ln_graph.Tree
module Euler = Ln_graph.Euler
module Gen = Ln_graph.Gen
module Metric = Ln_graph.Metric
module Graph_io = Ln_graph.Graph_io
module Stats = Ln_graph.Stats
module Union_find = Ln_graph.Union_find
module Pqueue = Ln_graph.Pqueue
module Metrics = Ln_obs.Metrics
module Obs_json = Ln_obs.Obs_json
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Fault = Ln_congest.Fault
module Reliable = Ln_congest.Reliable
module Monitor = Ln_congest.Monitor
module Bfs = Ln_prim.Bfs
module Broadcast = Ln_prim.Broadcast
module Keyed = Ln_prim.Keyed
module Exchange = Ln_prim.Exchange
module Forest = Ln_prim.Forest
module Tree_frags = Ln_prim.Tree_frags
module Dist_mst = Ln_mst.Dist_mst
module Fragments = Ln_mst.Fragments
module Boruvka = Ln_mst.Boruvka
module Euler_dist = Ln_traversal.Euler_dist
module Tour_table = Ln_traversal.Tour_table
module Bellman_ford = Ln_aspt.Bellman_ford
module Hub_sssp = Ln_aspt.Hub_sssp
module Slt = Ln_slt.Slt
module Kry95 = Ln_slt.Kry95
module Light_spanner = Ln_spanner.Light_spanner
module Baswana_sen = Ln_spanner.Baswana_sen
module En17 = Ln_spanner.En17
module Greedy = Ln_spanner.Greedy
module Buckets = Ln_spanner.Buckets
module Cluster_sim = Ln_spanner.Cluster_sim
module Intervals = Ln_spanner.Intervals
module Net = Ln_nets.Net
module Le_list = Ln_nets.Le_list
module Greedy_net = Ln_nets.Greedy_net
module Doubling_spanner = Ln_doubling.Doubling_spanner
module Mst_weight = Ln_estimate.Mst_weight
module Rmq = Ln_route.Rmq
module Labels = Ln_route.Labels
module Artifact = Ln_route.Artifact
module Oracle = Ln_route.Oracle
module Workload = Ln_route.Workload
module Serve = Ln_route.Serve
module Store = Ln_store.Store
module Fleet = Ln_store.Fleet
module Scenario = Ln_scenario.Scenario
module Scenario_runner = Ln_scenario.Runner

(** One-call constructions with bundled quality numbers — the paper's
    Table-1 rows as library calls. *)
module Quick = struct
  type quality = {
    edges : int;
    stretch : float;
    lightness : float;
    rounds_native : int;
    rounds_charged : int;
  }

  let pp_quality ppf q =
    Format.fprintf ppf
      "edges=%d stretch=%.3f lightness=%.3f rounds=%d (native) + %d (charged)" q.edges
      q.stretch q.lightness q.rounds_native q.rounds_charged

  let quality_of g edges ledger ~stretch =
    {
      edges = List.length edges;
      stretch;
      lightness = Stats.lightness g edges;
      rounds_native = Ledger.native_total ledger;
      rounds_charged = Ledger.charged_total ledger;
    }

  (* Every Quick entry point notes its seed in the construction's own
     ledger, so any logged run can be replayed exactly. *)
  let note_seed ledger seed =
    Ledger.note ledger ~label:"seed" (string_of_int seed)

  (** Table 1 row 1: the (2k−1)(1+ε) light spanner. *)
  let light_spanner ?(seed = 0) ?(epsilon = 0.25) g ~k =
    let rng = Random.State.make [| seed; 0x11 |] in
    let sp = Light_spanner.build ~rng g ~k ~epsilon in
    note_seed sp.Light_spanner.ledger seed;
    let stretch = Stats.max_edge_stretch g sp.Light_spanner.edges in
    (sp, quality_of g sp.Light_spanner.edges sp.Light_spanner.ledger ~stretch)

  (** Table 1 row 2: the shallow-light tree. *)
  let slt ?(seed = 0) ?(epsilon = 0.5) g ~rt =
    let rng = Random.State.make [| seed; 0x517 |] in
    let t = Slt.build ~rng g ~rt ~epsilon in
    note_seed t.Slt.ledger seed;
    let stretch = Stats.tree_root_stretch g t.Slt.tree ~root:rt in
    (t, quality_of g t.Slt.edges t.Slt.ledger ~stretch)

  (** Table 1 row 3: an (α, β)-net. *)
  let net ?(seed = 0) ?(delta = 0.5) g ~radius =
    let rng = Random.State.make [| seed; 0xe7 |] in
    let bfs, _ = Bfs.tree g ~root:0 in
    Net.build ~rng g ~bfs ~radius ~delta

  (** Table 1 row 4: the (1+ε) doubling spanner. *)
  let doubling_spanner ?(seed = 0) ?(epsilon = 0.5) g =
    let rng = Random.State.make [| seed; 0xdd |] in
    let sp = Doubling_spanner.build ~rng g ~epsilon in
    note_seed sp.Doubling_spanner.ledger seed;
    let stretch = Stats.max_edge_stretch g sp.Doubling_spanner.edges in
    (sp, quality_of g sp.Doubling_spanner.edges sp.Doubling_spanner.ledger ~stretch)
end
