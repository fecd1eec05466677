(* Tests for the distributed Euler tour (Section 3 / Lemma 2): exact
   agreement with the sequential tour, and the Õ(√n + D) round shape. *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Euler = Ln_graph.Euler
module Gen = Ln_graph.Gen
module Mst_seq = Ln_graph.Mst_seq
module Ledger = Ln_congest.Ledger
module Dist_mst = Ln_mst.Dist_mst
module Tree_frags = Ln_prim.Tree_frags
module Hub_sssp = Ln_aspt.Hub_sssp
module Euler_dist = Ln_traversal.Euler_dist

let check = Alcotest.(check bool)

let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a)

(* Compare the distributed tour with the sequential one entry by
   entry: same appearance indices and same visiting times. *)
let tours_agree g ~rt (d : Euler_dist.t) =
  let tree = Tree.of_edges g ~root:rt (Mst_seq.kruskal g) in
  let seq = Euler.of_tree tree in
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    let expected =
      List.map (fun pos -> (pos, seq.Euler.time.(pos))) seq.Euler.positions.(v)
    in
    let got = d.Euler_dist.appearances.(v) in
    if List.length expected <> List.length got then ok := false
    else
      List.iter2
        (fun (pi, ti) (pj, tj) -> if pi <> pj || not (close ti tj) then ok := false)
        expected got
  done;
  !ok && close d.Euler_dist.total seq.Euler.total

let run_tour ?(rt = 0) g =
  let dist = Dist_mst.run g in
  (dist, Euler_dist.run dist ~rt)

let test_euler_dist_small () =
  let rng = Random.State.make [| 4 |] in
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.1 () in
  let _, d = run_tour g in
  check "tour agrees with sequential" true (tours_agree g ~rt:0 d)

let test_euler_dist_nontrivial_root () =
  let rng = Random.State.make [| 14 |] in
  let g = Gen.erdos_renyi rng ~n:64 ~p:0.08 () in
  let _, d = run_tour ~rt:33 g in
  check "tour agrees (rt=33)" true (tours_agree g ~rt:33 d)

let prop_euler_dist_random =
  QCheck2.Test.make ~name:"distributed tour = sequential tour" ~count:20
    QCheck2.Gen.(pair (int_range 2 80) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 17 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.12 () in
      let rt = seed mod n in
      let dist = Dist_mst.run g in
      let d = Euler_dist.run dist ~rt in
      tours_agree g ~rt d)

let prop_euler_dist_structured =
  QCheck2.Test.make ~name:"distributed tour on structured graphs" ~count:8
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = Random.State.make [| seed; 23 |] in
      List.for_all
        (fun (g, rt) ->
          let dist = Dist_mst.run g in
          tours_agree g ~rt (Euler_dist.run dist ~rt))
        [
          (Gen.path 40, 0);
          (Gen.path 41, 20);
          (Gen.star 30, 0);
          (Gen.star 30, 5);
          (Gen.caterpillar rng ~spine:15 ~legs:20 (), 3);
          (Gen.grid rng ~rows:6 ~cols:6 (), 8);
        ])

let test_intervals_nest () =
  (* DFS intervals of children are nested within the parent's. *)
  let rng = Random.State.make [| 6 |] in
  let g = Gen.erdos_renyi rng ~n:70 ~p:0.1 () in
  let dist = Dist_mst.run g in
  let d = Euler_dist.run dist ~rt:0 in
  let parent_edge = d.Euler_dist.rooted.Dist_mst.parent_edge in
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if parent_edge.(v) >= 0 then begin
      let lo, hi = d.Euler_dist.interval.(v) in
      let plo, phi = d.Euler_dist.interval.(Graph.other_end g parent_edge.(v) v) in
      if not (plo <= lo +. 1e-9 && hi <= phi +. 1e-9) then ok := false
    end
  done;
  check "intervals nest" true !ok

let test_rounds_shape () =
  (* Lemma 2: Õ(√n + D) rounds. Check the native round count against a
     generous multiple of (√n + D) on a mid-size graph. *)
  let rng = Random.State.make [| 9 |] in
  let g = Gen.erdos_renyi rng ~n:400 ~p:0.02 () in
  let dist = Dist_mst.run g in
  let before = Ledger.total dist.Dist_mst.ledger in
  let _ = Euler_dist.run dist ~rt:0 in
  let tour_rounds = Ledger.total dist.Dist_mst.ledger - before in
  let bound =
    let sqrt_n = Float.sqrt 400.0 in
    let d = Graph.hop_diameter g in
    int_of_float (40.0 *. (sqrt_n +. float_of_int d)) + 200
  in
  check "tour rounds within Õ(√n+D) envelope" true (tour_rounds <= bound)

let test_tour_totals_and_counts () =
  let rng = Random.State.make [| 12 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.1 () in
  let dist = Dist_mst.run g in
  let d = Euler_dist.run dist ~rt:5 in
  (* Total tour length = 2 w(MST). *)
  let w_mst = Graph.weight_of_edges g dist.Dist_mst.mst_edges in
  check "total = 2 w(T)" true (close d.Euler_dist.total (2.0 *. w_mst));
  (* Appearance counts equal MST degrees (+1 at the root). *)
  let deg = Array.make (Graph.n g) 0 in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    dist.Dist_mst.mst_edges;
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    let expected = if v = 5 then deg.(v) + 1 else deg.(v) in
    if List.length d.Euler_dist.appearances.(v) <> expected then ok := false
  done;
  check "appearance counts" true !ok;
  (* g at the root equals the total. *)
  check "g(rt) = total" true (close d.Euler_dist.g_value.(5) d.Euler_dist.total)

let test_tour_table_assembly () =
  let rng = Random.State.make [| 13 |] in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.15 () in
  let dist = Dist_mst.run g in
  let d = Euler_dist.run dist ~rt:0 in
  let tt = Ln_traversal.Tour_table.make g d in
  let open Ln_traversal.Tour_table in
  check "covers all positions" true (Array.for_all (fun v -> v >= 0) tt.vertex_of);
  check "times nondecreasing steps are edge weights" true
    (let ok = ref true in
     for j = 0 to tt.len - 2 do
       let w = Graph.weight g tt.next_edge.(j) in
       if Float.abs (tt.time_of.(j + 1) -. tt.time_of.(j) -. w) > 1e-6 then ok := false
     done;
     !ok);
  check "positions_of inverse of vertex_of" true
    (let ok = ref true in
     Array.iteri
       (fun v ps -> List.iter (fun j -> if tt.vertex_of.(j) <> v then ok := false) ps)
       tt.positions_of;
     !ok)

(* The fragment forest [f] of the rooted tree [parent_edge], checked
   against the parent column alone: what Tree_frags.of_partition
   promises, for the MST's base fragments and for a cut of T_rt. *)
let forest_agrees g ~parent_edge (f : Tree_frags.t) =
  let open Tree_frags in
  let n = Graph.n g in
  let parent v = if parent_edge.(v) < 0 then -1 else Graph.other_end g parent_edge.(v) v in
  let internal v = parent v >= 0 && f.frag_of.(parent v) = f.frag_of.(v) in
  let roots = Array.make f.count 0 in
  for v = 0 to n - 1 do
    if not (internal v) then roots.(f.frag_of.(v)) <- roots.(f.frag_of.(v)) + 1
  done;
  let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt in
  let check_vertex v =
    if (f.internal_parent.(v) >= 0) <> internal v then fail "internal_parent.(%d)" v
    else if internal v && f.internal_parent.(v) <> parent_edge.(v) then
      fail "internal_parent.(%d) is not its parent edge" v
  in
  let check_fragment fr =
    let r = f.root_of.(fr) in
    if roots.(fr) <> 1 then fail "fragment %d has %d roots" fr roots.(fr)
    else if f.frag_of.(r) <> fr || internal r then fail "root_of.(%d) is not its root" fr
    else if f.frag_parent_edge.(fr) <> parent_edge.(r) then fail "frag_parent_edge.(%d)" fr
    else if f.parent_frag.(fr) <> if parent r < 0 then -1 else f.frag_of.(parent r) then
      fail "parent_frag.(%d)" fr
  in
  (* The roots hanging off [p], in descending fragment order. *)
  let hanging p =
    List.filter_map
      (fun fr ->
        let r = f.root_of.(fr) in
        if parent r = p then Some (r, parent_edge.(r)) else None)
      (List.init f.count (fun i -> f.count - 1 - i))
  in
  for v = 0 to n - 1 do
    check_vertex v;
    if f.ext_children.(v) <> hanging v then fail "ext_children.(%d)" v
  done;
  for fr = 0 to f.count - 1 do
    check_fragment fr
  done;
  true

let prop_fragment_forest =
  QCheck2.Test.make ~name:"fragment forest = its parent column" ~count:30
    QCheck2.Gen.(triple (int_range 0 2) (int_range 2 120) (int_range 0 10_000))
    (fun (model, n, seed) ->
      let rng = Random.State.make [| seed; 0xf0 |] in
      let g =
        match model with
        | 0 -> Gen.ensure_connected rng (Gen.erdos_renyi rng ~n ~p:0.08 ())
        | 1 ->
          let radius = 2.0 /. Float.sqrt (float_of_int n) in
          Gen.ensure_connected rng (fst (Gen.random_geometric rng ~n ~radius ()))
        | _ -> Gen.path n
      in
      let rt = seed mod n in
      let dist = Dist_mst.run g in
      let rooted = Dist_mst.root_at dist ~rt in
      let central = Tree.of_edges g ~root:rt dist.Dist_mst.mst_edges in
      let spt = Hub_sssp.run ~rng g ~bfs:dist.Dist_mst.bfs ~src:rt in
      let trt = (Tree.view spt.Hub_sssp.tree).Tree.parent_edge in
      let target_size = int_of_float (Float.ceil (Float.sqrt (float_of_int n))) in
      rooted.Dist_mst.parent_edge = (Tree.view central).Tree.parent_edge
      && forest_agrees g ~parent_edge:rooted.Dist_mst.parent_edge rooted.Dist_mst.frags
      && forest_agrees g ~parent_edge:trt
           (Tree_frags.decompose g ~parent_edge:trt ~root:rt ~target_size))

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eedc |]) t

let () =
  Alcotest.run "ln_traversal"
    [
      ( "euler-dist",
        [
          Alcotest.test_case "small" `Quick test_euler_dist_small;
          Alcotest.test_case "nontrivial root" `Quick test_euler_dist_nontrivial_root;
          qcheck prop_euler_dist_random;
          qcheck prop_euler_dist_structured;
          Alcotest.test_case "intervals nest" `Quick test_intervals_nest;
          Alcotest.test_case "rounds shape" `Slow test_rounds_shape;
          Alcotest.test_case "totals and counts" `Quick test_tour_totals_and_counts;
          Alcotest.test_case "tour table" `Quick test_tour_table_assembly;
          qcheck prop_fragment_forest;
        ] );
    ]
