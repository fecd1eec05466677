(* Tests for the distributed MST: agreement with the sequential MST,
   base-fragment structure (Figure 1), and the Section-3.1 rooting. *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Gen = Ln_graph.Gen
module Mst_seq = Ln_graph.Mst_seq
module Ledger = Ln_congest.Ledger
module Fragments = Ln_mst.Fragments
module Boruvka = Ln_mst.Boruvka
module Dist_mst = Ln_mst.Dist_mst
module Tree_frags = Ln_prim.Tree_frags

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_dist_mst_small () =
  let rng = Random.State.make [| 11 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.1 () in
  let r = Dist_mst.run g in
  check "matches kruskal" true (r.Dist_mst.mst_edges = Mst_seq.kruskal g);
  check "ledger non-trivial" true (Ledger.total r.Dist_mst.ledger > 0)

let prop_dist_mst_equals_kruskal =
  QCheck2.Test.make ~name:"distributed MST = kruskal" ~count:25
    QCheck2.Gen.(pair (int_range 2 70) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 99 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.15 () in
      let r = Dist_mst.run ~root:(n / 3) g in
      r.Dist_mst.mst_edges = Mst_seq.kruskal g)

let prop_dist_mst_on_structured =
  QCheck2.Test.make ~name:"distributed MST on structured graphs" ~count:10
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed; 5 |] in
      let graphs =
        [
          Gen.path 30;
          Gen.cycle 25;
          Gen.star 20;
          Gen.grid rng ~rows:5 ~cols:6 ();
          Gen.clustered rng ~clusters:3 ~size:7 ~p_in:0.7 ~p_out:0.05 ();
        ]
      in
      List.for_all
        (fun g -> (Dist_mst.run g).Dist_mst.mst_edges = Mst_seq.kruskal g)
        graphs)

let test_base_fragments_structure () =
  let rng = Random.State.make [| 21 |] in
  let g = Gen.erdos_renyi rng ~n:100 ~p:0.08 () in
  let r = Dist_mst.run g in
  let base = r.Dist_mst.base in
  (match Fragments.check g base with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* external + internal = full MST *)
  let internal = Array.to_list base.Fragments.internal_edges |> List.concat in
  check_int "edge counts" 99 (List.length internal + List.length r.Dist_mst.external_edges);
  check_int "external = count - 1"
    (base.Fragments.count - 1)
    (List.length r.Dist_mst.external_edges)

let prop_fragment_count_and_diameter =
  QCheck2.Test.make ~name:"base fragments: O(sqrt n) count, bounded diameter" ~count:15
    QCheck2.Gen.(pair (int_range 20 150) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 31 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.2 () in
      let sqrt_n = int_of_float (Float.ceil (Float.sqrt (float_of_int n))) in
      let frags, _ = Boruvka.base_fragments g ~target:sqrt_n ~diam_cap:((2 * sqrt_n) + 2) in
      (* Freezing can leave slightly more than sqrt n fragments; the
         diameter of a fragment can exceed the cap by one merge's
         worth. Generous structural envelope: *)
      frags.Fragments.count <= (4 * sqrt_n) + 1
      && Fragments.max_hop_diameter frags <= (6 * sqrt_n) + 8)

let test_boruvka_full_mst () =
  let rng = Random.State.make [| 3 |] in
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.2 () in
  let frags, _ = Boruvka.base_fragments g ~target:1 ~diam_cap:max_int in
  check_int "one fragment" 1 frags.Fragments.count;
  let edges = List.sort Int.compare frags.Fragments.internal_edges.(0) in
  check "is the MST" true (edges = Mst_seq.kruskal g)

(* Hop depth of [v] along the native parent column. *)
let depth g (rooted : Dist_mst.rooted) v =
  let rec up v d =
    let e = rooted.Dist_mst.parent_edge.(v) in
    if e < 0 then d else up (Graph.other_end g e v) (d + 1)
  in
  up v 0

let test_root_at () =
  let rng = Random.State.make [| 8 |] in
  let g = Gen.erdos_renyi rng ~n:80 ~p:0.07 () in
  let r = Dist_mst.run g in
  let rt = 17 in
  let rooted = Dist_mst.root_at r ~rt in
  let central = Tree.of_edges g ~root:rt r.Dist_mst.mst_edges in
  check "tree spans" true (Tree.covers_all central);
  (* The distributed parent pointers must agree with the (unique)
     orientation of the MST at rt. *)
  check "parent edges agree with central orientation" true
    (rooted.Dist_mst.parent_edge = (Tree.view central).Tree.parent_edge);
  (* Fragment roots lie inside their fragments and the top fragment's
     root is rt. *)
  let base = r.Dist_mst.base in
  let root_of = rooted.Dist_mst.frags.Tree_frags.root_of in
  Array.iteri
    (fun f ri ->
      check (Printf.sprintf "root of frag %d inside" f) true
        (base.Fragments.frag_of.(ri) = f))
    root_of;
  check_int "top fragment root is rt" rt root_of.(base.Fragments.frag_of.(rt))

let test_root_at_path_graph () =
  (* Worst case: a path; fragments are intervals. *)
  let g = Gen.path 64 in
  let r = Dist_mst.run g in
  let rooted = Dist_mst.root_at r ~rt:63 in
  check "path rooted fine" true
    (List.for_all (fun v -> v = 63 || rooted.Dist_mst.parent_edge.(v) >= 0) (List.init 64 Fun.id));
  check_int "depth of other end" 63 (depth g rooted 0)

let test_diam_cap_matters () =
  (* Without the cap, a unit path collapses into one huge fragment. *)
  let g = Gen.path 256 in
  let r_capped = Dist_mst.run g in
  let r_free = Dist_mst.run ~diam_cap:max_int g in
  check "capped diameter small" true
    (Fragments.max_hop_diameter r_capped.Dist_mst.base <= 40);
  check "uncapped collapses" true
    (r_free.Dist_mst.base.Fragments.count = 1
    && Fragments.max_hop_diameter r_free.Dist_mst.base = 255);
  (* Both still compute the same (correct) MST. *)
  check "same mst" true (r_capped.Dist_mst.mst_edges = r_free.Dist_mst.mst_edges)

let test_ledger_labels () =
  let rng = Random.State.make [| 44 |] in
  let g = Gen.erdos_renyi rng ~n:60 ~p:0.1 () in
  let r = Dist_mst.run g in
  let labels =
    List.map (fun e -> e.Ln_congest.Ledger.label) (Ledger.entries r.Dist_mst.ledger)
  in
  check "bfs phase" true (List.mem "bfs-tree" labels);
  check "phase1 charged" true (List.mem "kp98-phase1" labels);
  check "phase2 native" true (List.mem "phase2/mwoe-aggregate" labels);
  (* Native rounds dominate: phase 2 runs natively. *)
  check "native > 0" true (Ledger.native_total r.Dist_mst.ledger > 0)

let test_root_at_star () =
  let g = Gen.star 30 in
  let r = Dist_mst.run g in
  let rooted = Dist_mst.root_at r ~rt:7 in
  check "leaf depth" true (depth g rooted 12 = 2);
  check "center depth 1" true (depth g rooted 0 = 1)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed7 |]) t

let () =
  Alcotest.run "ln_mst"
    [
      ( "dist-mst",
        [
          Alcotest.test_case "small" `Quick test_dist_mst_small;
          qcheck prop_dist_mst_equals_kruskal;
          qcheck prop_dist_mst_on_structured;
        ] );
      ( "fragments",
        [
          Alcotest.test_case "structure" `Quick test_base_fragments_structure;
          qcheck prop_fragment_count_and_diameter;
          Alcotest.test_case "full mst via boruvka" `Quick test_boruvka_full_mst;
        ] );
      ( "rooting",
        [
          Alcotest.test_case "root_at" `Quick test_root_at;
          Alcotest.test_case "path graph" `Quick test_root_at_path_graph;
          Alcotest.test_case "star" `Quick test_root_at_star;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "diameter cap" `Quick test_diam_cap_matters;
          Alcotest.test_case "ledger labels" `Quick test_ledger_labels;
        ] );
    ]
