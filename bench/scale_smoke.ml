(* Substrate perf regression gate at Graph500 scale.

   Builds an RMAT graph through the streaming constructor, runs BFS
   from sampled sources (reporting TEPS), extracts the MST forest and
   round-trips a route artifact — all under a wall-clock ceiling and a
   Gc top-of-heap ceiling, so a CSR or generator regression fails
   `dune runtest` (scale 14 via the @scale-smoke alias) or `make scale`
   (scale 17) instead of only drifting in the committed BENCH JSONs.

   Ceilings are deliberately loose (several x measured) — they catch
   representation-level regressions (boxing the adjacency again,
   accidentally materializing edge lists), not micro-noise. *)

module Graph = Lightnet.Graph
module Gen = Lightnet.Gen
module Paths = Lightnet.Paths
module Mst_seq = Lightnet.Mst_seq
module Artifact = Lightnet.Artifact
module Engine = Lightnet.Engine
module Bfs = Lightnet.Bfs

let scale = ref 14
let edge_factor = ref 16
let max_seconds = ref 60.0
let max_heap_mw = ref 0 (* mega-words; 0 = derived from scale below *)
let sources = ref 8

let speclist =
  [
    ("--scale", Arg.Set_int scale, "RMAT scale (n = 2^scale), default 14");
    ("--edge-factor", Arg.Set_int edge_factor, "edges per vertex drawn, default 16");
    ("--max-seconds", Arg.Set_float max_seconds, "wall-clock ceiling, default 60");
    ("--max-heap-mw", Arg.Set_int max_heap_mw,
     "Gc top-heap ceiling in mega-words (0 = auto from scale)");
    ("--sources", Arg.Set_int sources, "BFS sources sampled, default 8");
  ]

let () =
  Arg.parse speclist (fun _ -> ()) "scale_smoke [options]";
  let t_start = Unix.gettimeofday () in
  let rng = Random.State.make [| 0x5ca1e; !scale |] in
  let n = 1 lsl !scale in

  let t0 = Unix.gettimeofday () in
  let us, vs, ws = Gen.rmat_edges rng ~scale:!scale ~edge_factor:!edge_factor () in
  let t_gen = Unix.gettimeofday () -. t0 in

  let t0 = Unix.gettimeofday () in
  let g = Graph.of_edge_arrays ~n us vs ws in
  let t_build = Unix.gettimeofday () -. t0 in
  let m = Graph.m g in

  (* BFS + TEPS over sampled degree>0 sources. Traversed edges for a
     run = (sum of degrees of reached vertices) / 2, the Graph500
     convention. *)
  let t0 = Unix.gettimeofday () in
  let traversed = ref 0.0 in
  let srcs_done = ref 0 in
  let tries = ref 0 in
  while !srcs_done < !sources && !tries < 100 * !sources do
    incr tries;
    let s = Random.State.int rng n in
    if Graph.degree g s > 0 then begin
      let dist = Paths.bfs_hops g s in
      let e = ref 0 in
      for v = 0 to n - 1 do
        if dist.(v) >= 0 then e := !e + Graph.degree g v
      done;
      traversed := !traversed +. (float_of_int !e /. 2.0);
      incr srcs_done
    end
  done;
  let t_bfs = Unix.gettimeofday () -. t0 in
  let teps = if t_bfs > 0.0 then !traversed /. t_bfs else 0.0 in

  (* CONGEST-engine leg: relaxing BFS through run_fast on the same
     graph, so an engine hot-path regression (scratch reacquisition
     going O(n), inbox chains boxing, the dense round path
     materializing worklists) trips the same wall/heap ceilings as a
     substrate regression. Layers are checked against the sequential
     BFS — the engine must agree, not merely finish. *)
  let t0 = Unix.gettimeofday () in
  let root =
    let r = ref 0 in
    while Graph.degree g !r = 0 do incr r done;
    !r
  in
  let e_states, e_stats = Engine.run_fast g (Bfs.relaxing_program ~root) in
  let t_engine = Unix.gettimeofday () -. t0 in
  let engine_rps =
    if t_engine > 0.0 then float_of_int e_stats.Engine.rounds /. t_engine
    else 0.0
  in
  let seq_dist = Paths.bfs_hops g root in
  Array.iteri
    (fun v (s : Bfs.state) ->
      if s.Bfs.dist <> seq_dist.(v) then begin
        Printf.eprintf
          "scale_smoke: engine BFS layer mismatch at v=%d (engine %d, seq %d)\n"
          v s.Bfs.dist seq_dist.(v);
        exit 1
      end)
    e_states;

  let t0 = Unix.gettimeofday () in
  let forest = Mst_seq.forest g in
  let t_mst = Unix.gettimeofday () -. t0 in

  let t0 = Unix.gettimeofday () in
  let artifact =
    Artifact.make ~graph:g ~slt_root:0 ~spanner_stretch:1.0
      ~spanner_edges:forest ~slt_edges:forest ~mst_edges:forest
      ~params:[ ("scale", string_of_int !scale) ]
      ()
  in
  (* Round-trip through a temp file: `dune exec` runs with cwd = the
     invocation directory, so a relative path here would strand a
     multi-megabyte artifact at the repo root (gitignored, but still
     30 MB of clutter at scale 17). *)
  let file =
    Filename.temp_file (Printf.sprintf "scale_smoke_%d_" !scale) ".artifact"
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Artifact.save file artifact;
      let reloaded = Artifact.load file in
      if reloaded.Artifact.digest <> artifact.Artifact.digest then begin
        prerr_endline "scale_smoke: artifact digest changed across save/load";
        exit 1
      end);
  let t_artifact = Unix.gettimeofday () -. t0 in

  let wall = Unix.gettimeofday () -. t_start in
  let live_w, top_w = Bench_env.heap_words () in
  let rss_kb = Bench_env.peak_rss_kb () in
  Printf.printf
    "scale-smoke: scale=%d n=%d m=%d | gen %.2fs build %.2fs bfs %.2fs (%.2e TEPS, %d srcs) engine %.2fs (%d rounds, %.0f rounds/s, %d msgs) mst %.2fs artifact %.2fs | wall %.2fs heap top %.1f Mw rss %d MB\n%!"
    !scale n m t_gen t_build t_bfs teps !srcs_done t_engine
    e_stats.Engine.rounds engine_rps e_stats.Engine.messages t_mst t_artifact
    wall
    (float_of_int top_w /. 1e6)
    (rss_kb / 1024);

  let heap_ceiling_mw =
    if !max_heap_mw > 0 then !max_heap_mw
    else
      (* Auto ceiling: the pipeline's resident structures are O(m)
         words across generator columns, CSR, forest and artifact —
         measured ~29 words per drawn edge at scales 14/17/20. 90
         words per drawn edge = 3x headroom before the gate trips. *)
      max 64 (90 * !edge_factor * n / 1_000_000)
  in
  let failed = ref false in
  if wall > !max_seconds then begin
    Printf.eprintf "scale_smoke: wall %.2fs exceeds ceiling %.2fs\n" wall !max_seconds;
    failed := true
  end;
  if float_of_int top_w > float_of_int heap_ceiling_mw *. 1e6 then begin
    Printf.eprintf "scale_smoke: top heap %.1f Mw exceeds ceiling %d Mw\n"
      (float_of_int top_w /. 1e6)
      heap_ceiling_mw;
    failed := true
  end;
  ignore live_w;
  if !failed then exit 1
