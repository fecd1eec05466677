(* Tests for Section 6: LE lists against brute force, the net
   algorithm's covering/separation/iteration guarantees, and the greedy
   baseline. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Metric = Ln_graph.Metric
module Ledger = Ln_congest.Ledger
module Bfs = Ln_prim.Bfs
module Le_list = Ln_nets.Le_list
module Net = Ln_nets.Net
module Greedy_net = Ln_nets.Greedy_net

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop_le_lists =
  QCheck2.Test.make ~name:"LE lists satisfy Definition 1 (vs brute force)" ~count:20
    QCheck2.Gen.(pair (int_range 2 30) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 2 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.3 () in
      (* A random subset in a random order. *)
      let order =
        List.init n Fun.id
        |> List.filter (fun _ -> Random.State.bool rng)
        |> fun l -> if l = [] then [ 0 ] else l
      in
      let order =
        (* shuffle *)
        let a = Array.of_list order in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let lists = Le_list.compute g ~order in
      match Le_list.check g ~order lists with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_report m)

let test_le_list_sizes () =
  (* W.h.p. lists are O(log n). *)
  let rng = Random.State.make [| 8 |] in
  let g = Gen.erdos_renyi rng ~n:200 ~p:0.05 () in
  let order =
    let a = Array.init 200 Fun.id in
    for i = 199 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let lists = Le_list.compute g ~order in
  let maxlen = Array.fold_left (fun acc l -> max acc (List.length l)) 0 lists in
  check "list sizes O(log n)" true (maxlen <= 4 * 8 (* 4 log2 200 *))

let prop_net_properties =
  QCheck2.Test.make ~name:"net covering & separation" ~count:15
    QCheck2.Gen.(triple (int_range 2 50) (int_range 0 5000) (int_range 0 2))
    (fun (n, seed, di) ->
      let delta = [| 0.0; 0.5; 1.0 |].(di) in
      let rng = Random.State.make [| seed; 19 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.2 () in
      let bfs, _ = Bfs.tree g ~root:0 in
      let radius = 30.0 in
      let net = Net.build ~rng g ~bfs ~radius ~delta in
      Net.is_net g ~covering:net.Net.covering_bound ~separation:net.Net.separation_bound
        net.Net.points)

let test_net_iterations_logarithmic () =
  let rng = Random.State.make [| 44 |] in
  let g = Gen.erdos_renyi rng ~n:300 ~p:0.03 () in
  let bfs, _ = Bfs.tree g ~root:0 in
  let net = Net.build ~rng g ~bfs ~radius:50.0 ~delta:0.5 in
  (* O(log n) w.h.p.; generous envelope 6·log2 n. *)
  check "iterations O(log n)" true (net.Net.iterations <= 6 * 9);
  check "ledger mixes charged and native" true
    (Ledger.charged_total net.Net.ledger > 0 && Ledger.native_total net.Net.ledger > 0)

let test_net_small_radius_all_points () =
  (* Radius below the minimum distance: every vertex is a net point. *)
  let g = Gen.path ~w:5.0 12 in
  let rng = Random.State.make [| 1 |] in
  let bfs, _ = Bfs.tree g ~root:0 in
  let net = Net.build ~rng g ~bfs ~radius:1.0 ~delta:0.0 in
  check_int "all vertices" 12 (List.length net.Net.points)

let test_net_huge_radius_single_point () =
  let g = Gen.path ~w:1.0 20 in
  let rng = Random.State.make [| 2 |] in
  let bfs, _ = Bfs.tree g ~root:0 in
  let net = Net.build ~rng g ~bfs ~radius:100.0 ~delta:0.0 in
  check_int "single net point" 1 (List.length net.Net.points)

let prop_greedy_net =
  QCheck2.Test.make ~name:"greedy net is a (delta,delta)-net" ~count:15
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 29 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.25 () in
      let radius = 40.0 in
      let pts = Greedy_net.build g ~radius in
      Metric.covering_radius g pts <= radius +. 1e-9
      && Metric.separation g pts > radius -. 1e-9)

let test_net_on_path_exact () =
  (* Unit path, radius 2, delta 0: net points pairwise > 2 apart and
     everything within 2 of one; so between 1/5 and 1/2 of vertices. *)
  let g = Gen.path 50 in
  let rng = Random.State.make [| 9 |] in
  let bfs, _ = Bfs.tree g ~root:0 in
  let net = Net.build ~rng g ~bfs ~radius:2.0 ~delta:0.0 in
  let k = List.length net.Net.points in
  check "path net size range" true (k >= 10 && k <= 25);
  check "verified" true (Net.is_net g ~covering:2.0 ~separation:2.0 net.Net.points)

let test_delta_trades_covering () =
  (* Larger delta deactivates more aggressively: fewer net points. *)
  let rng = Random.State.make [| 10 |] in
  let g = Gen.erdos_renyi rng ~n:150 ~p:0.05 () in
  let bfs, _ = Bfs.tree g ~root:0 in
  let size d =
    let rng = Random.State.make [| 10; 10 |] in
    List.length (Net.build ~rng g ~bfs ~radius:20.0 ~delta:d).Net.points
  in
  check "delta=2 no bigger than delta=0" true (size 2.0 <= size 0.0)

let test_le_list_singleton_order () =
  let g = Gen.path 6 in
  let lists = Le_list.compute g ~order:[ 3 ] in
  (* Single source: every vertex's list is [(3, d(3,v))]. *)
  let ok = ref true in
  for v = 0 to 5 do
    match lists.(v) with
    | [ (3, d) ] -> if Float.abs (d -. Float.abs (float_of_int (v - 3))) > 1e-9 then ok := false
    | _ -> ok := false
  done;
  check "singleton order" true !ok

let test_net_rejects_bad_params () =
  let g = Gen.path 4 in
  let rng = Random.State.make [| 1 |] in
  let bfs, _ = Bfs.tree g ~root:0 in
  check "radius 0 rejected" true
    (try ignore (Net.build ~rng g ~bfs ~radius:0.0 ~delta:0.5); false
     with Invalid_argument _ -> true);
  check "negative delta rejected" true
    (try ignore (Net.build ~rng g ~bfs ~radius:1.0 ~delta:(-0.1)); false
     with Invalid_argument _ -> true)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed8 |]) t

let () =
  Alcotest.run "ln_nets"
    [
      ( "le-lists",
        [ qcheck prop_le_lists; Alcotest.test_case "sizes" `Quick test_le_list_sizes ] );
      ( "net",
        [
          qcheck prop_net_properties;
          Alcotest.test_case "iterations" `Quick test_net_iterations_logarithmic;
          Alcotest.test_case "small radius" `Quick test_net_small_radius_all_points;
          Alcotest.test_case "huge radius" `Quick test_net_huge_radius_single_point;
        ] );
      ("baselines", [ qcheck prop_greedy_net ]);
      ( "net-extra",
        [
          Alcotest.test_case "path exact" `Quick test_net_on_path_exact;
          Alcotest.test_case "delta trade-off" `Quick test_delta_trades_covering;
          Alcotest.test_case "singleton LE order" `Quick test_le_list_singleton_order;
          Alcotest.test_case "bad params" `Quick test_net_rejects_bad_params;
        ] );
    ]
