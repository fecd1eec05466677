(* Tests for Section 5: greedy baseline, EN17b reference, Baswana-Sen,
   the cluster-graph simulations (cross-checked against the
   reference), and the full light-spanner pipeline. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Stats = Ln_graph.Stats
module Mst_seq = Ln_graph.Mst_seq
module Ledger = Ln_congest.Ledger
module Dist_mst = Ln_mst.Dist_mst
module Euler_dist = Ln_traversal.Euler_dist
module Tour_table = Ln_traversal.Tour_table
module Greedy = Ln_spanner.Greedy
module En17 = Ln_spanner.En17
module Baswana_sen = Ln_spanner.Baswana_sen
module Buckets = Ln_spanner.Buckets
module Cluster_sim = Ln_spanner.Cluster_sim
module Light_spanner = Ln_spanner.Light_spanner

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Greedy                                                              *)

let prop_greedy_stretch =
  QCheck2.Test.make ~name:"greedy spanner stretch" ~count:20
    QCheck2.Gen.(triple (int_range 2 50) (int_range 0 5000) (int_range 1 3))
    (fun (n, seed, k) ->
      let rng = Random.State.make [| seed; 3 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.3 () in
      let t = float_of_int ((2 * k) - 1) in
      let sp = Greedy.build g ~stretch:t in
      Stats.max_edge_stretch g sp <= t +. 1e-9)

let test_greedy_size () =
  let rng = Random.State.make [| 10 |] in
  let g = Gen.erdos_renyi rng ~n:100 ~p:0.4 () in
  let sp = Greedy.build g ~stretch:3.0 in
  (* stretch-3 greedy has O(n^{1.5}) edges; generous envelope. *)
  check "greedy-3 size" true (List.length sp <= 3 * 1000);
  let sp5 = Greedy.build g ~stretch:5.0 in
  check "greedy-5 sparser than greedy-3" true (List.length sp5 <= List.length sp)

let test_greedy_contains_mst () =
  let rng = Random.State.make [| 30 |] in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.3 () in
  let sp = Greedy.build g ~stretch:3.0 in
  let mst = Mst_seq.kruskal g in
  let sp_set = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace sp_set e ()) sp;
  check "mst subset of greedy" true (List.for_all (Hashtbl.mem sp_set) mst)

(* ------------------------------------------------------------------ *)
(* EN17 reference                                                      *)

let abstract_of_graph g =
  {
    En17.nv = Graph.n g;
    adj =
      Array.init (Graph.n g) (fun v ->
          List.rev (Graph.fold_neighbors g v (fun acc e u -> (u, e) :: acc) []));
  }

let unweighted_stretch g sp k =
  (* hop-stretch of each edge in the subgraph *)
  let ok = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace ok e ()) sp;
  let edge_ok e = Hashtbl.mem ok e in
  let worst = ref 0 in
  for v = 0 to Graph.n g - 1 do
    (* BFS in subgraph *)
    let dist = Array.make (Graph.n g) (-1) in
    dist.(v) <- 0;
    let q = Queue.create () in
    Queue.push v q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      Graph.iter_neighbors g x (fun e u ->
          if edge_ok e && dist.(u) < 0 then begin
            dist.(u) <- dist.(x) + 1;
            Queue.push u q
          end)
    done;
    Graph.iter_neighbors g v (fun _ u ->
        if u > v && dist.(u) > !worst then worst := dist.(u))
  done;
  ignore k;
  !worst

let prop_en17_stretch =
  QCheck2.Test.make ~name:"EN17 reference: stretch 2k-1 on unweighted graphs" ~count:15
    QCheck2.Gen.(triple (int_range 4 60) (int_range 0 5000) (int_range 2 4))
    (fun (n, seed, k) ->
      let rng = Random.State.make [| seed; 7 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.3 ~w_lo:1.0 ~w_hi:1.0 () in
      let sp = En17.spanner ~rng ~k (abstract_of_graph g) in
      unweighted_stretch g sp k <= (2 * k) - 1)

let test_en17_size () =
  let rng = Random.State.make [| 70 |] in
  let g = Gen.erdos_renyi rng ~n:150 ~p:0.5 ~w_lo:1.0 ~w_hi:1.0 () in
  let k = 3 in
  let sp = En17.spanner ~rng ~k (abstract_of_graph g) in
  (* expected O(n^{1+1/k}); envelope 8 * n^{1+1/k} + n *)
  let bound = int_of_float (8.0 *. (150.0 ** (1.0 +. (1.0 /. 3.0)))) + 150 in
  check "en17 size envelope" true (List.length sp <= bound)

(* ------------------------------------------------------------------ *)
(* Baswana-Sen                                                         *)

let prop_bs_stretch =
  QCheck2.Test.make ~name:"Baswana-Sen stretch 2k-1 (weighted)" ~count:15
    QCheck2.Gen.(triple (int_range 2 50) (int_range 0 5000) (int_range 1 4))
    (fun (n, seed, k) ->
      let rng = Random.State.make [| seed; 11 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.3 () in
      let r = Baswana_sen.build ~rng ~k g in
      Stats.max_edge_stretch g r.Baswana_sen.edges
      <= float_of_int ((2 * k) - 1) +. 1e-9)

let test_bs_size () =
  let rng = Random.State.make [| 90 |] in
  let g = Gen.erdos_renyi rng ~n:120 ~p:0.5 () in
  let k = 3 in
  let r = Baswana_sen.build ~rng ~k g in
  let bound = int_of_float (8.0 *. float_of_int k *. (120.0 ** (1.0 +. (1.0 /. float_of_int k)))) in
  check "bs size envelope" true (List.length r.Baswana_sen.edges <= bound)

let test_bs_subgraph_restriction () =
  let rng = Random.State.make [| 91 |] in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.4 () in
  (* Restrict to even edge ids only; spanner must use only those. *)
  let edge_ok e = e mod 2 = 0 in
  let r = Baswana_sen.build ~edge_ok ~rng ~k:2 g in
  check "respects restriction" true (List.for_all edge_ok r.Baswana_sen.edges)

(* ------------------------------------------------------------------ *)
(* Cluster simulations vs the EN17 reference                           *)

(* Build one bucket instance and compare case1 against the pure
   algorithm run on the explicit cluster graph with identical r. *)
let test_case1_matches_reference () =
  let rng = Random.State.make [| 123 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.15 () in
  let dist = Dist_mst.run g in
  let tour = Euler_dist.run dist ~rt:0 in
  let tt = Tour_table.make g tour in
  let l_total = tour.Euler_dist.total in
  let epsilon = 0.5 and k = 2 in
  (* Find a nonempty bucket that classifies as Global. *)
  let classify = Buckets.classify ~l_total ~epsilon ~n:(Graph.n g) in
  let found = ref None in
  for i = 0 to Buckets.bucket_count ~epsilon ~n:(Graph.n g) - 1 do
    if !found = None then begin
      let nonempty =
        Graph.fold_edges g (fun e _ acc -> acc || classify (Graph.weight g e) = `Bucket i) false
      in
      if nonempty then begin
        match Buckets.assign g ~tt ~l_total ~epsilon ~k ~i with
        | Buckets.Global { nclusters; cluster_of } -> found := Some (i, nclusters, cluster_of)
        | Buckets.Interval _ -> ()
      end
    end
  done;
  match !found with
  | None -> () (* no global bucket in this instance; nothing to check *)
  | Some (i, nclusters, cluster_of) ->
    let in_bucket e = classify (Graph.weight g e) = `Bucket i in
    let r = En17.draw_r ~rng:(Random.State.make [| 5 |]) ~k nclusters in
    let ledger = Ledger.create () in
    let bfs = dist.Dist_mst.bfs in
    let sim =
      Cluster_sim.case1 ~r ~rng g ~bfs ~k ~nclusters ~cluster_of ~in_bucket ledger
    in
    (* Reference: explicit cluster graph, same r. *)
    let adj = Array.make nclusters [] in
    Graph.iter_edges g (fun e ed ->
        if in_bucket e then begin
          let a = cluster_of.(ed.Graph.u) and b = cluster_of.(ed.Graph.v) in
          if a <> b then begin
            adj.(a) <- (b, e) :: adj.(a);
            adj.(b) <- (a, e) :: adj.(b)
          end
        end);
    let cg = { En17.nv = nclusters; adj } in
    let st = ref (En17.init_state r) in
    for _ = 1 to k do
      st := En17.step cg !st
    done;
    (* Occupied-cluster init differs: unoccupied clusters exist in the
       reference as isolated vertices — harmless since they have no
       edges. *)
    let reference =
      En17.edges cg ~state:!st
      |> List.map (fun (_, _, e) -> e)
      |> List.sort_uniq Int.compare
    in
    check "case1 = reference" true (sim = reference)

let test_case2_interval_machinery () =
  (* Drive case2 on a path graph (whose buckets all land in case 2 for
     small epsilon) and check the spanner covers all bucket edges with
     bounded stretch. *)
  let rng = Random.State.make [| 321 |] in
  let g = Gen.erdos_renyi rng ~n:80 ~p:0.08 () in
  let k = 2 and epsilon = 0.3 in
  let sp = Light_spanner.build ~rng g ~k ~epsilon in
  check "case2 buckets were exercised" true (sp.Light_spanner.buckets_case2 > 0);
  check "stretch bound" true
    (Stats.max_edge_stretch g sp.Light_spanner.edges
    <= sp.Light_spanner.stretch_bound +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                       *)

let prop_light_spanner_stretch =
  QCheck2.Test.make ~name:"light spanner stretch (2k-1)(1+O(eps))" ~count:10
    QCheck2.Gen.(triple (int_range 3 60) (int_range 0 5000) (int_range 1 3))
    (fun (n, seed, k) ->
      let rng = Random.State.make [| seed; 13 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.25 () in
      let sp = Light_spanner.build ~rng g ~k ~epsilon:0.25 in
      Stats.max_edge_stretch g sp.Light_spanner.edges
      <= sp.Light_spanner.stretch_bound +. 1e-9)

let test_light_spanner_heavy_tail () =
  (* Heavy-tailed weights exercise many buckets. *)
  let rng = Random.State.make [| 222 |] in
  let g = Gen.heavy_tailed rng ~n:70 ~p:0.2 ~range:1e5 () in
  let sp = Light_spanner.build ~rng g ~k:2 ~epsilon:0.4 in
  check "stretch" true
    (Stats.max_edge_stretch g sp.Light_spanner.edges <= sp.Light_spanner.stretch_bound);
  check "both cases exercised or graph too small" true
    (sp.Light_spanner.buckets_case1 + sp.Light_spanner.buckets_case2 > 0)

let test_light_spanner_lightness () =
  let rng = Random.State.make [| 77 |] in
  let g = Gen.erdos_renyi rng ~n:120 ~p:0.3 () in
  let k = 2 in
  let sp = Light_spanner.build ~rng g ~k ~epsilon:0.25 in
  let lightness = Stats.lightness g sp.Light_spanner.edges in
  (* O(k n^{1/k}) with a generous constant. *)
  let bound = 12.0 *. float_of_int k *. (120.0 ** (1.0 /. float_of_int k)) in
  check "lightness envelope" true (lightness <= bound);
  (* And the size envelope O(k n^{1+1/k}). *)
  let size_bound =
    int_of_float (12.0 *. float_of_int k *. (120.0 ** (1.0 +. (1.0 /. float_of_int k))))
  in
  check "size envelope" true (List.length sp.Light_spanner.edges <= size_bound)

let test_ledger_structure () =
  let rng = Random.State.make [| 3 |] in
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.2 () in
  let sp = Light_spanner.build ~rng g ~k:2 ~epsilon:0.3 in
  let labels = List.map (fun e -> e.Ledger.label) (Ledger.entries sp.Light_spanner.ledger) in
  let has p = List.exists (fun l -> String.length l >= String.length p && String.sub l 0 (String.length p) = p) labels in
  check "mst" true (has "mst+euler/");
  check "baswana-sen" true (has "baswana-sen");
  check "bucket phases" true (has "case1/" || has "case2/")

let test_draw_r_clamped () =
  let rng = Random.State.make [| 99 |] in
  let r = En17.draw_r ~rng ~k:3 5000 in
  check "all r < k" true (Array.for_all (fun x -> x < 3.0) r);
  check "all r >= 0" true (Array.for_all (fun x -> x >= 0.0) r)

let test_bs_k1_keeps_bucket () =
  (* k=1: a 1-spanner of the bucket = all bucket edges. *)
  let rng = Random.State.make [| 98 |] in
  let g = Gen.erdos_renyi rng ~n:25 ~p:0.3 () in
  let r = Baswana_sen.build ~rng ~k:1 g in
  check "1-spanner = whole graph" true
    (List.length r.Baswana_sen.edges = Graph.m g)

let test_bucket_assign_case_split () =
  (* Low buckets (few clusters) must be Global, high buckets Interval. *)
  let rng = Random.State.make [| 97 |] in
  let g = Gen.heavy_tailed rng ~n:80 ~p:0.15 ~range:1e5 () in
  let dist = Dist_mst.run g in
  let tour = Euler_dist.run dist ~rt:0 in
  let tt = Tour_table.make g tour in
  let l_total = tour.Euler_dist.total in
  let epsilon = 0.25 and k = 2 in
  let kind i =
    match Buckets.assign g ~tt ~l_total ~epsilon ~k ~i with
    | Buckets.Global _ -> `G
    | Buckets.Interval _ -> `I
  in
  let nb = Buckets.bucket_count ~epsilon ~n:80 in
  check "bucket 0 global" true (kind 0 = `G);
  check "last bucket interval" true (kind (nb - 1) = `I);
  (* The split is monotone: once interval, always interval. *)
  let rec scan i seen_interval ok =
    if i >= nb then ok
    else begin
      match kind i with
      | `G -> scan (i + 1) seen_interval (ok && not seen_interval)
      | `I -> scan (i + 1) true ok
    end
  in
  check "monotone case split" true (scan 0 false true)

let test_interval_assignment_consistent () =
  let rng = Random.State.make [| 96 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.1 () in
  let dist = Dist_mst.run g in
  let tour = Euler_dist.run dist ~rt:0 in
  let tt = Tour_table.make g tour in
  let l_total = tour.Euler_dist.total in
  let nb = Buckets.bucket_count ~epsilon:0.3 ~n:60 in
  match Buckets.assign g ~tt ~l_total ~epsilon:0.3 ~k:2 ~i:(nb - 1) with
  | Buckets.Global _ -> Alcotest.fail "expected interval case"
  | Buckets.Interval { centers; cluster_of; chosen_pos; _ } ->
    check "centers include position 0" true centers.(0);
    (* cluster_of = nearest center at or left of chosen position. *)
    let ok = ref true in
    Array.iteri
      (fun v j ->
        let c = cluster_of.(v) in
        if not (centers.(c) && c <= j) then ok := false;
        for j2 = c + 1 to j do
          if centers.(j2) then ok := false
        done)
      chosen_pos;
    check "cluster is nearest center" true !ok

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eedb |]) t

let () =
  Alcotest.run "ln_spanner"
    [
      ( "greedy",
        [
          qcheck prop_greedy_stretch;
          Alcotest.test_case "size" `Quick test_greedy_size;
          Alcotest.test_case "contains mst" `Quick test_greedy_contains_mst;
        ] );
      ( "en17",
        [ qcheck prop_en17_stretch; Alcotest.test_case "size" `Quick test_en17_size ] );
      ( "baswana-sen",
        [
          qcheck prop_bs_stretch;
          Alcotest.test_case "size" `Quick test_bs_size;
          Alcotest.test_case "subgraph" `Quick test_bs_subgraph_restriction;
        ] );
      ( "cluster-sim",
        [
          Alcotest.test_case "case1 = reference" `Quick test_case1_matches_reference;
          Alcotest.test_case "case2 machinery" `Quick test_case2_interval_machinery;
        ] );
      ( "components",
        [
          Alcotest.test_case "draw_r clamp" `Quick test_draw_r_clamped;
          Alcotest.test_case "BS k=1" `Quick test_bs_k1_keeps_bucket;
          Alcotest.test_case "case split" `Quick test_bucket_assign_case_split;
          Alcotest.test_case "interval assignment" `Quick test_interval_assignment_consistent;
        ] );
      ( "pipeline",
        [
          qcheck prop_light_spanner_stretch;
          Alcotest.test_case "heavy tail" `Quick test_light_spanner_heavy_tail;
          Alcotest.test_case "lightness+size" `Quick test_light_spanner_lightness;
          Alcotest.test_case "ledger" `Quick test_ledger_structure;
        ] );
    ]
