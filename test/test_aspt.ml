(* Tests for the shortest-path substrate: exact distributed
   Bellman-Ford, bounded multi-source exploration with path reporting,
   and the hub-based SPT (the BKKL17 substitute). *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Gen = Ln_graph.Gen
module Paths = Ln_graph.Paths
module Ledger = Ln_congest.Ledger
module Bfs = Ln_prim.Bfs
module Bellman_ford = Ln_aspt.Bellman_ford
module Hub_sssp = Ln_aspt.Hub_sssp

let check = Alcotest.(check bool)

let close a b =
  (a = infinity && b = infinity) || Float.abs (a -. b) <= 1e-7 *. (1.0 +. Float.abs a)

let dist_arrays_equal a b = Array.for_all2 (fun x y -> close x y) a b

(* A table entry as (distance, parent edge), if the source is held. *)
let lookup t s =
  let i = Bellman_ford.find t s in
  if i < 0 then None else Some (Bellman_ford.dist t i, Bellman_ford.parent t i)

let test_bf_sssp () =
  let rng = Random.State.make [| 2 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.1 () in
  let r, _ = Bellman_ford.sssp g ~src:7 in
  let exact = Paths.dijkstra g 7 in
  check "bf = dijkstra" true (dist_arrays_equal r.Bellman_ford.dist exact.Paths.dist)

let prop_bf_equals_dijkstra =
  QCheck2.Test.make ~name:"distributed BF = dijkstra" ~count:25
    QCheck2.Gen.(pair (int_range 2 60) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 41 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.15 () in
      let src = seed mod n in
      let r, _ = Bellman_ford.sssp g ~src in
      dist_arrays_equal r.Bellman_ford.dist (Paths.dijkstra g src).Paths.dist)

let test_bf_subgraph () =
  (* Restrict to the MST: distances must match Dijkstra on the MST. *)
  let rng = Random.State.make [| 12 |] in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.2 () in
  let mst = Ln_graph.Mst_seq.kruskal g in
  let mask = Array.make (Graph.m g) false in
  List.iter (fun e -> mask.(e) <- true) mst;
  let edge_ok e = mask.(e) in
  let r, _ = Bellman_ford.sssp ~edge_ok g ~src:0 in
  let exact = Paths.dijkstra ~edge_ok g 0 in
  check "bf on subgraph" true (dist_arrays_equal r.Bellman_ford.dist exact.Paths.dist)

let test_multi_source_bounded () =
  let rng = Random.State.make [| 5 |] in
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.12 () in
  let srcs = [ 3; 17; 42 ] in
  let bound = 60.0 in
  let tables, _ = Bellman_ford.multi_source ~bound g ~srcs in
  (* Every table entry is the exact distance; every exact distance
     within the bound appears. *)
  let ok = ref true in
  List.iter
    (fun s ->
      let exact = Paths.dijkstra g s in
      for v = 0 to Graph.n g - 1 do
        match lookup tables.(v) s with
        | Some (d, _) -> if not (close d exact.Paths.dist.(v)) then ok := false
        | None -> if exact.Paths.dist.(v) <= bound then ok := false
      done)
    srcs;
  check "bounded multi-source exact" true !ok

let test_multi_source_paths () =
  let rng = Random.State.make [| 25 |] in
  let g = Gen.erdos_renyi rng ~n:45 ~p:0.15 () in
  let srcs = [ 1; 30 ] in
  let tables, _ = Bellman_ford.multi_source g ~srcs in
  (* Parent pointers reconstruct a path whose length is the distance. *)
  let ok = ref true in
  List.iter
    (fun s ->
      for v = 0 to Graph.n g - 1 do
        match Bellman_ford.path_to_source g tables v ~src:s with
        | None -> ok := false
        | Some path ->
          let rec len = function
            | a :: (b :: _ as rest) ->
              (match Graph.find_edge g a b with
              | Some e -> Graph.weight g e +. len rest
              | None -> infinity)
            | _ -> 0.0
          in
          let d = match lookup tables.(v) s with Some (d, _) -> d | None -> nan in
          if not (close (len path) d) then ok := false
      done)
    srcs;
  check "paths realize distances" true !ok

let test_hub_sssp_exact () =
  let rng = Random.State.make [| 77 |] in
  let g = Gen.erdos_renyi rng ~n:120 ~p:0.05 () in
  let bfs, _ = Bfs.tree g ~root:0 in
  let r = Hub_sssp.run ~rng g ~bfs ~src:11 in
  let exact = Paths.dijkstra g 11 in
  check "hub sssp exact" true (dist_arrays_equal r.Hub_sssp.dist exact.Paths.dist);
  check "tree spans" true (Tree.covers_all r.Hub_sssp.tree);
  (* The SPT realizes the distances. *)
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if not (close (Tree.dist_to_root r.Hub_sssp.tree v) exact.Paths.dist.(v)) then
      ok := false
  done;
  check "tree realizes distances" true !ok

let prop_hub_sssp_random =
  QCheck2.Test.make ~name:"hub sssp = dijkstra (incl. path graphs)" ~count:15
    QCheck2.Gen.(pair (int_range 2 100) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 53 |] in
      let g =
        if seed mod 3 = 0 then Gen.path n else Gen.erdos_renyi rng ~n ~p:0.1 ()
      in
      let src = seed mod n in
      let bfs, _ = Bfs.tree g ~root:0 in
      let r = Hub_sssp.run ~rng g ~bfs ~src in
      let exact = Paths.dijkstra g src in
      dist_arrays_equal r.Hub_sssp.dist exact.Paths.dist
      && Tree.covers_all r.Hub_sssp.tree)

let test_hub_rounds_shape () =
  (* On a path (D = n-1, worst case for plain BF) the hub scheme's
     native rounds must beat plain Bellman-Ford... at these scales we
     check it stays within a Õ(√n + D) envelope (D dominates here) and
     well below c·n only when D is small; on the path D = n, so simply
     sanity-check the ledger exists and phases ran. *)
  let rng = Random.State.make [| 31 |] in
  let g = Gen.grid rng ~rows:12 ~cols:12 () in
  let bfs, _ = Bfs.tree g ~root:0 in
  let r = Hub_sssp.run ~rng g ~bfs ~src:100 in
  let exact = Paths.dijkstra g 100 in
  check "grid exact" true (dist_arrays_equal r.Hub_sssp.dist exact.Paths.dist);
  check "ledger has phases" true (List.length (Ledger.entries r.Hub_sssp.ledger) >= 3)

(* ------------------------------------------------------------------ *)
(* Additional shortest-path cases                                      *)

let test_bf_init_seeding () =
  (* Seeding with realizable upper bounds converges to the exact
     distances (the repair-phase contract). *)
  let rng = Random.State.make [| 61 |] in
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.1 () in
  let exact = Paths.dijkstra g 4 in
  (* Upper bounds: true distance along some tree + noise upward. *)
  let init =
    Array.mapi (fun v d -> if v = 4 then 0.0 else (d *. 1.7) +. 5.0) exact.Paths.dist
  in
  let r, _ = Bellman_ford.sssp ~init g ~src:4 in
  check "repair converges to exact" true
    (dist_arrays_equal r.Bellman_ford.dist exact.Paths.dist)

let test_multi_source_empty_sources () =
  let g = Gen.path 5 in
  let tables, stats = Bellman_ford.multi_source g ~srcs:[] in
  check "all tables empty" true (Array.for_all (fun t -> Bellman_ford.length t = 0) tables);
  check "no rounds wasted" true (stats.Ln_congest.Engine.rounds <= 1)

let test_multi_source_all_sources () =
  let rng = Random.State.make [| 62 |] in
  let g = Gen.erdos_renyi rng ~n:25 ~p:0.25 () in
  let srcs = List.init 25 Fun.id in
  let tables, _ = Bellman_ford.multi_source ~bound:30.0 g ~srcs in
  (* Spot-check symmetry d(u->v) = d(v->u). *)
  let ok = ref true in
  for u = 0 to 24 do
    for v = 0 to 24 do
      match lookup tables.(u) v, lookup tables.(v) u with
      | Some (d1, _), Some (d2, _) -> if not (close d1 d2) then ok := false
      | None, None -> ()
      | _ -> ok := false
    done
  done;
  check "bounded multi-source symmetric" true !ok

let test_hub_sssp_on_subgraph () =
  (* Restricted to the MST, hub SSSP must equal Dijkstra on the MST. *)
  let rng = Random.State.make [| 63 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.15 () in
  let mst = Ln_graph.Mst_seq.kruskal g in
  let mask = Array.make (Graph.m g) false in
  List.iter (fun e -> mask.(e) <- true) mst;
  let edge_ok e = mask.(e) in
  let bfs, _ = Bfs.tree g ~root:0 in
  let r = Hub_sssp.run ~edge_ok ~rng g ~bfs ~src:9 in
  let exact = Paths.dijkstra ~edge_ok g 9 in
  check "restricted hub sssp exact" true
    (dist_arrays_equal r.Hub_sssp.dist exact.Paths.dist);
  check "tree edges inside the restriction" true
    (List.for_all edge_ok (Tree.edges r.Hub_sssp.tree))

let prop_multi_source_prunes_at_bound =
  QCheck2.Test.make ~name:"bounded tables contain no entry beyond the bound" ~count:15
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 64 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.2 () in
      let bound = 25.0 in
      let tables, _ = Bellman_ford.multi_source ~bound g ~srcs:[ 0; n - 1 ] in
      Array.for_all
        (fun t ->
          List.for_all
            (fun i -> Bellman_ford.dist t i <= bound +. 1e-9)
            (List.init (Bellman_ford.length t) Fun.id))
        tables)

let test_hop_cap_on_path () =
  (* Unit weights on a path: an entry crosses at most [h] edges, so v
     holds s exactly when |v - s| <= h, at distance |v - s|. *)
  let n = 30 in
  let g = Gen.path n in
  List.iter
    (fun h ->
      let tables, _ = Bellman_ford.hop_limited ~hop_cap:h g ~srcs:(List.init n Fun.id) in
      for v = 0 to n - 1 do
        for s = 0 to n - 1 do
          let k = abs (v - s) in
          match lookup tables.(v) s with
          | Some (d, _) ->
            if k > h || d <> float_of_int k then
              Alcotest.failf "hop cap %d: %d holds %d at %g" h v s d
          | None -> if k <= h then Alcotest.failf "hop cap %d: %d misses %d" h v s
        done
      done)
    [ 1; 2; 5 ]

let test_hop_cap_beyond_n () =
  (* A cap no simple path reaches forwards every entry, so the tables
     equal the uncapped ones entry for entry, in insertion order too. *)
  let rng = Random.State.make [| 65 |] in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.12 () in
  let srcs = [ 2; 11; 23; 39 ] in
  let capped, _ = Bellman_ford.hop_limited ~hop_cap:40 g ~srcs in
  let plain, _ = Bellman_ford.multi_source g ~srcs in
  let entries t =
    List.map
      (fun s ->
        let i = Bellman_ford.find t s in
        (i, lookup t s))
      srcs
  in
  check "same entries at the same positions" true
    (Array.for_all2
       (fun a b -> Bellman_ford.length a = Bellman_ford.length b && entries a = entries b)
       capped plain)

let prop_all_sources_growth =
  (* Every vertex is a source, so a table can hold up to n entries and
     its index and ring grow through several doublings mid-run. *)
  QCheck2.Test.make ~name:"every vertex a source: tables = bounded dijkstra" ~count:12
    QCheck2.Gen.(triple (int_range 2 80) (int_range 0 5000) (float_range 0.0 300.0))
    (fun (n, seed, bound) ->
      let rng = Random.State.make [| seed; 66 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.15 () in
      let tables, _ = Bellman_ford.multi_source ~bound g ~srcs:(List.init n Fun.id) in
      List.for_all
        (fun s ->
          let exact = (Paths.dijkstra g s).Paths.dist in
          List.for_all
            (fun v ->
              match lookup tables.(v) s with
              | Some (d, _) -> d = exact.(v) && d <= bound
              | None -> exact.(v) > bound)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed1 |]) t

let () =
  Alcotest.run "ln_aspt"
    [
      ( "bellman-ford",
        [
          Alcotest.test_case "sssp" `Quick test_bf_sssp;
          qcheck prop_bf_equals_dijkstra;
          Alcotest.test_case "subgraph" `Quick test_bf_subgraph;
          Alcotest.test_case "multi-source bounded" `Quick test_multi_source_bounded;
          Alcotest.test_case "multi-source paths" `Quick test_multi_source_paths;
        ] );
      ( "hub-sssp",
        [
          Alcotest.test_case "exact" `Quick test_hub_sssp_exact;
          qcheck prop_hub_sssp_random;
          Alcotest.test_case "grid shape" `Quick test_hub_rounds_shape;
          Alcotest.test_case "subgraph" `Quick test_hub_sssp_on_subgraph;
        ] );
      ( "bf-extra",
        [
          Alcotest.test_case "init seeding" `Quick test_bf_init_seeding;
          Alcotest.test_case "no sources" `Quick test_multi_source_empty_sources;
          Alcotest.test_case "all sources" `Quick test_multi_source_all_sources;
          qcheck prop_multi_source_prunes_at_bound;
          Alcotest.test_case "hop cap on a path" `Quick test_hop_cap_on_path;
          Alcotest.test_case "hop cap beyond n" `Quick test_hop_cap_beyond_n;
          qcheck prop_all_sources_growth;
        ] );
    ]
