(* Tests for the sequential graph substrate: structures, shortest
   paths, MSTs, trees and Euler tours. *)

module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths
module Mst_seq = Ln_graph.Mst_seq
module Tree = Ln_graph.Tree
module Euler = Ln_graph.Euler
module Gen = Ln_graph.Gen
module Stats = Ln_graph.Stats
module Union_find = Ln_graph.Union_find
module Pqueue = Ln_graph.Pqueue
module Metric = Ln_graph.Metric
module Graph_io = Ln_graph.Graph_io

let rng () = Random.State.make [| 0x5ee0; 42 |]

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs a)

let check_close msg a b =
  if not (close a b) then Alcotest.failf "%s: %.12g <> %.12g" msg a b

(* A small diamond graph used in several tests:
     0 --1-- 1
     |       |
     4       1
     |       |
     2 --1-- 3       plus a heavy shortcut 0--3 of weight 10. *)
let diamond () =
  Graph.create 4
    [
      { Graph.u = 0; v = 1; w = 1.0 };
      { Graph.u = 1; v = 3; w = 1.0 };
      { Graph.u = 0; v = 2; w = 4.0 };
      { Graph.u = 2; v = 3; w = 1.0 };
      { Graph.u = 0; v = 3; w = 10.0 };
    ]

(* ------------------------------------------------------------------ *)
(* Union-find and priority queue laws                                  *)

let test_union_find () =
  let uf = Union_find.create 10 in
  check_int "initial sets" 10 (Union_find.count uf);
  check "union works" true (Union_find.union uf 0 1);
  check "redundant union" false (Union_find.union uf 1 0);
  check "same" true (Union_find.same uf 0 1);
  check "not same" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  check_int "sets after merges" 7 (Union_find.count uf);
  check_int "size of merged" 4 (Union_find.size uf 2)

let test_pqueue_sorts () =
  let rng = rng () in
  let q = Pqueue.create () in
  let xs = List.init 500 (fun _ -> Random.State.float rng 1000.0) in
  List.iteri (fun i x -> Pqueue.push q x i) xs;
  check_int "length" 500 (Pqueue.length q);
  let popped = ref [] in
  while not (Pqueue.is_empty q) do
    popped := Pqueue.min_prio q :: !popped;
    ignore (Pqueue.pop_min q)
  done;
  let sorted = List.sort Float.compare xs in
  check "pops in order" true (List.rev !popped = sorted)

(* ------------------------------------------------------------------ *)
(* Graph structure                                                     *)

let test_graph_basics () =
  let g = diamond () in
  check_int "n" 4 (Graph.n g);
  check_int "m" 5 (Graph.m g);
  check_int "degree 0" 3 (Graph.degree g 0);
  check "find edge" true (Graph.find_edge g 3 1 <> None);
  check "no self edge" true (Graph.find_edge g 2 2 = None);
  check "connected" true (Graph.is_connected g);
  check_close "total weight" 17.0 (Graph.total_weight g)

let test_graph_collapses_parallel () =
  let g =
    Graph.create 3
      [
        { Graph.u = 0; v = 1; w = 5.0 };
        { Graph.u = 1; v = 0; w = 2.0 };
        { Graph.u = 1; v = 2; w = 1.0 };
        { Graph.u = 2; v = 2; w = 9.0 };
      ]
  in
  check_int "parallel collapsed, loop dropped" 2 (Graph.m g);
  match Graph.find_edge g 0 1 with
  | Some id -> check_close "kept the lighter parallel edge" 2.0 (Graph.weight g id)
  | None -> Alcotest.fail "edge 0-1 missing"

let test_graph_rejects_bad_input () =
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Graph.create: endpoint out of range")
    (fun () -> ignore (Graph.create 2 [ { Graph.u = 0; v = 5; w = 1.0 } ]));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.create: weight must be positive and finite") (fun () ->
      ignore (Graph.create 2 [ { Graph.u = 0; v = 1; w = 0.0 } ]))

let test_components () =
  let g =
    Graph.create 5 [ { Graph.u = 0; v = 1; w = 1.0 }; { Graph.u = 2; v = 3; w = 1.0 } ]
  in
  let c, comp = Graph.components g in
  check_int "three components" 3 c;
  check "0 and 1 together" true (comp.(0) = comp.(1));
  check "0 and 2 apart" true (comp.(0) <> comp.(2));
  check "connected is false" true (not (Graph.is_connected g))

let test_hop_diameter () =
  check_int "path hop diameter" 9 (Graph.hop_diameter (Gen.path 10));
  check_int "star hop diameter" 2 (Graph.hop_diameter (Gen.star 10))

(* ------------------------------------------------------------------ *)
(* Shortest paths                                                      *)

let test_dijkstra_diamond () =
  let g = diamond () in
  let r = Paths.dijkstra g 0 in
  check_close "d(0,3)" 2.0 r.dist.(3);
  check_close "d(0,2)" 3.0 r.dist.(2);
  match Paths.path_to r g 2 with
  | Some p -> check "path 0-1-3-2" true (p = [ 0; 1; 3; 2 ])
  | None -> Alcotest.fail "no path"

let test_dijkstra_bound () =
  let g = diamond () in
  let r = Paths.dijkstra ~bound:1.5 g 0 in
  check_close "within bound" 1.0 r.dist.(1);
  check "beyond bound" true (r.dist.(2) = infinity)

let test_dijkstra_multi () =
  let g = Gen.path 5 in
  let r, src = Paths.dijkstra_multi g [ 0; 4 ] in
  check_close "middle" 2.0 r.dist.(2);
  check_int "near source of 1" 0 src.(1);
  check_int "near source of 3" 4 src.(3)

(* ------------------------------------------------------------------ *)
(* Reference kernel: the boxed heap (option payloads, tuple pops) and
   the filtered/unfiltered Dijkstra loop pair that Pqueue and Paths
   replaced, kept as the differential oracle for both.                 *)

module Boxed_heap = struct
  type 'a t = {
    mutable prio : float array;
    mutable data : 'a option array;
    mutable len : int;
  }

  let create () = { prio = Array.make 16 infinity; data = Array.make 16 None; len = 0 }
  let is_empty q = q.len = 0

  let grow q =
    let cap = Array.length q.prio in
    let prio = Array.make (2 * cap) infinity in
    let data = Array.make (2 * cap) None in
    Array.blit q.prio 0 prio 0 q.len;
    Array.blit q.data 0 data 0 q.len;
    q.prio <- prio;
    q.data <- data

  let swap q i j =
    let p = q.prio.(i) and d = q.data.(i) in
    q.prio.(i) <- q.prio.(j);
    q.data.(i) <- q.data.(j);
    q.prio.(j) <- p;
    q.data.(j) <- d

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.prio.(i) < q.prio.(parent) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.len && q.prio.(l) < q.prio.(!smallest) then smallest := l;
    if r < q.len && q.prio.(r) < q.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q prio x =
    if q.len = Array.length q.prio then grow q;
    q.prio.(q.len) <- prio;
    q.data.(q.len) <- Some x;
    q.len <- q.len + 1;
    sift_up q (q.len - 1)

  let pop_min q =
    if q.len = 0 then raise Not_found;
    let p = q.prio.(0) in
    let x = match q.data.(0) with Some x -> x | None -> assert false in
    q.len <- q.len - 1;
    q.prio.(0) <- q.prio.(q.len);
    q.data.(0) <- q.data.(q.len);
    q.data.(q.len) <- None;
    if q.len > 0 then sift_down q 0;
    (p, x)
end

let ref_dijkstra ?(bound = infinity) ?edge_ok g seeds =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let parent_edge = Array.make n (-1) in
  let source = Array.make n (-1) in
  let settled = Array.make n false in
  let { Graph.off; adj_eid; adj_dst; ew; _ } = Graph.view g in
  let q = Boxed_heap.create () in
  List.iter
    (fun s ->
      dist.(s) <- 0.0;
      source.(s) <- s;
      Boxed_heap.push q 0.0 s)
    seeds;
  while not (Boxed_heap.is_empty q) do
    let d, v = Boxed_heap.pop_min q in
    if not settled.(v) then begin
      settled.(v) <- true;
      if d <= bound then begin
        let hi = off.(v + 1) - 1 in
        match edge_ok with
        | None ->
          for i = off.(v) to hi do
            let u = adj_dst.(i) in
            if not settled.(u) then begin
              let id = adj_eid.(i) in
              let nd = d +. ew.(id) in
              if nd < dist.(u) && nd <= bound then begin
                dist.(u) <- nd;
                parent_edge.(u) <- id;
                source.(u) <- source.(v);
                Boxed_heap.push q nd u
              end
            end
          done
        | Some ok ->
          for i = off.(v) to hi do
            let id = adj_eid.(i) in
            let u = adj_dst.(i) in
            if ok id && not settled.(u) then begin
              let nd = d +. ew.(id) in
              if nd < dist.(u) && nd <= bound then begin
                dist.(u) <- nd;
                parent_edge.(u) <- id;
                source.(u) <- source.(v);
                Boxed_heap.push q nd u
              end
            end
          done
      end
    end
  done;
  ({ Paths.dist; parent_edge }, source)

let prop_pqueue_matches_reference =
  QCheck2.Test.make ~name:"pqueue pops = boxed reference, duplicate priorities" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x9e |] in
      let q = Pqueue.create () and r = Boxed_heap.create () in
      let same = ref true in
      let pop () =
        let p, x = Boxed_heap.pop_min r in
        let p' = Pqueue.min_prio q in
        if not (p = p' && x = Pqueue.pop_min q) then same := false
      in
      for i = 0 to 400 do
        if Boxed_heap.is_empty r || Random.State.int rng 3 > 0 then begin
          let p = float_of_int (Random.State.int rng 5) in
          Pqueue.push q p i;
          Boxed_heap.push r p i
        end
        else pop ()
      done;
      while not (Boxed_heap.is_empty r) do
        pop ()
      done;
      !same && Pqueue.is_empty q)

(* Erdős–Rényi graph with unit ([k = 1]) or small-integer weights in
   [1, k]: many equal distances, so the tie order shows. *)
let tie_graph rng ~n ~p ~k =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then
        edges := { Graph.u; v; w = float_of_int (1 + Random.State.int rng k) } :: !edges
    done
  done;
  Graph.create n !edges

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_dijkstra_matches_reference =
  QCheck2.Test.make ~name:"dijkstra = boxed reference, bit for bit" ~count:300
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xd1 |] in
      let n = 2 + Random.State.int rng 60 in
      let k = if Random.State.bool rng then 1 else 4 in
      let g = tie_graph rng ~n ~p:(0.05 +. Random.State.float rng 0.3) ~k in
      let mask = Array.init (Graph.m g) (fun _ -> Random.State.int rng 4 > 0) in
      let edge_ok = if Random.State.bool rng then Some (fun e -> mask.(e)) else None in
      let bound =
        if Random.State.bool rng then Some (float_of_int (1 + Random.State.int rng (2 * k)))
        else None
      in
      let seeds = List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n) in
      let src = List.hd seeds in
      let r_multi, r_source = ref_dijkstra ?bound ?edge_ok g seeds in
      let multi, source = Paths.dijkstra_multi ?bound ?edge_ok g seeds in
      let r_single, _ = ref_dijkstra ?bound ?edge_ok g [ src ] in
      let single = Paths.dijkstra ?bound ?edge_ok g src in
      let r_unbounded, _ = ref_dijkstra ?edge_ok g [ src ] in
      let into = Array.make n nan in
      Paths.dist_into ?edge_ok g src into;
      same_bits r_multi.Paths.dist multi.Paths.dist
      && r_multi.Paths.parent_edge = multi.Paths.parent_edge
      && r_source = source
      && same_bits r_single.Paths.dist single.Paths.dist
      && r_single.Paths.parent_edge = single.Paths.parent_edge
      && same_bits r_unbounded.Paths.dist into)

(* ------------------------------------------------------------------ *)
(* MST                                                                 *)

let test_mst_diamond () =
  let g = diamond () in
  let mst = Mst_seq.kruskal g in
  check "spanning" true (Mst_seq.is_spanning_tree g mst);
  check_close "weight" 3.0 (Graph.weight_of_edges g mst)

let prop_kruskal_equals_prim =
  QCheck2.Test.make ~name:"kruskal = prim on random graphs" ~count:40
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.3 () in
      Mst_seq.kruskal g = Mst_seq.prim g)

let prop_mst_weight_minimal =
  QCheck2.Test.make ~name:"mst weight <= any spanning tree (random trees)" ~count:30
    QCheck2.Gen.(pair (int_range 3 25) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 7 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.5 () in
      let w_mst = Mst_seq.weight g in
      (* Random spanning tree via randomized Kruskal on shuffled edges. *)
      let ids = Array.init (Graph.m g) (fun i -> i) in
      for i = Array.length ids - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = ids.(i) in
        ids.(i) <- ids.(j);
        ids.(j) <- t
      done;
      let uf = Union_find.create n in
      let w = ref 0.0 in
      Array.iter
        (fun id ->
          let u, v = Graph.endpoints g id in
          if Union_find.union uf u v then w := !w +. Graph.weight g id)
        ids;
      w_mst <= !w +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Trees and Euler tours                                               *)

let test_tree_structure () =
  let g = diamond () in
  let mst = Mst_seq.kruskal g in
  let t = Tree.of_edges g ~root:0 mst in
  check "covers all" true (Tree.covers_all t);
  check_int "root depth" 0 (Tree.depth_hops t 0);
  check_close "dist to 2 along tree" 3.0 (Tree.dist_to_root t 2);
  check_close "tree dist 2-1" 2.0 (Tree.dist t 2 1);
  check "preorder starts at root" true (List.hd (Tree.preorder t) = 0);
  check_int "preorder covers" 4 (List.length (Tree.preorder t))

let test_tree_rejects_cycle () =
  let g = Gen.cycle 4 in
  let all = List.init (Graph.m g) (fun i -> i) in
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.of_edges: cycle in edge set")
    (fun () -> ignore (Tree.of_edges g ~root:0 all))

let test_euler_paper_figure () =
  (* The figure in Section 3: rt=a with children b (w=2) and c..., we
     reproduce a small version: star with two leaves, weights 2 and 3. *)
  let g =
    Graph.create 3 [ { Graph.u = 0; v = 1; w = 2.0 }; { Graph.u = 0; v = 2; w = 3.0 } ]
  in
  let t = Tree.of_edges g ~root:0 [ 0; 1 ] in
  let e = Euler.of_tree t in
  check_int "length 2n-1" 5 (Euler.length e);
  check "sequence" true (Array.to_list e.Euler.seq = [ 0; 1; 0; 2; 0 ]);
  check "times" true
    (List.for_all2 close
       (Array.to_list e.Euler.time)
       [ 0.0; 2.0; 4.0; 7.0; 10.0 ]);
  check_close "total = 2 w(T)" 10.0 e.Euler.total

let prop_euler_invariants =
  QCheck2.Test.make ~name:"euler tour invariants on random MSTs" ~count:40
    QCheck2.Gen.(pair (int_range 2 60) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 13 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.2 () in
      let t = Tree.of_edges g ~root:0 (Mst_seq.kruskal g) in
      let e = Euler.of_tree t in
      match Euler.check t e with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Generators and stats                                                *)

let test_generators_connected () =
  let rng = rng () in
  let graphs =
    [
      Gen.erdos_renyi rng ~n:40 ~p:0.05 ();
      Gen.heavy_tailed rng ~n:30 ~p:0.1 ();
      fst (Gen.random_geometric rng ~n:50 ~radius:0.15 ());
      Gen.grid rng ~rows:5 ~cols:7 ();
      Gen.clustered rng ~clusters:4 ~size:8 ~p_in:0.6 ~p_out:0.02 ();
      Gen.caterpillar rng ~spine:10 ~legs:12 ();
      Gen.complete rng ~n:12 ();
    ]
  in
  List.iteri
    (fun i g ->
      check (Printf.sprintf "generator %d connected" i) true (Graph.is_connected g))
    graphs

let test_stats_identity () =
  let g = diamond () in
  let mst = Mst_seq.kruskal g in
  check_close "mst lightness is 1" 1.0 (Stats.lightness g mst);
  let all = List.init (Graph.m g) (fun i -> i) in
  check_close "full graph stretch 1" 1.0 (Stats.max_edge_stretch g all);
  (* MST-only spanner: edge 0-3 (w=10) is served by path of weight 2:
     stretch < 1 for that edge; worst stretch is edge 0-2 (w=4) served
     by 0-1-3-2 of weight 3 => 0.75; all <= 1 here except none. The
     max stretch over edges is achieved by an edge whose alternative is
     longer: all graph edges vs MST paths: 0-2: 3/4, 0-3: 2/10 -> max
     stretch is 1.0 for tree edges themselves. *)
  check_close "mst stretch on diamond" 1.0 (Stats.max_edge_stretch g mst)

(* Degenerate inputs must yield pinned, non-nan results: zero-weight
   spanning-forest baselines hit 0/0 in lightness, and vertices
   unreachable in the host itself hit inf/inf in root stretch. The
   contract: perfectly-light/perfectly-served cases give 1.0, honest
   failures give [infinity], and nan never escapes. *)
let test_stats_degenerate () =
  let no_nan msg x =
    if Float.is_nan x then Alcotest.failf "%s: got nan" msg
  in
  let check_inf msg x =
    if x <> infinity then Alcotest.failf "%s: %.12g <> inf" msg x
  in
  (* Edgeless graph: forest weight 0, no edges to stretch. Lightness
     used to raise (MST of a disconnected graph); now pinned at 1.0. *)
  let empty = Graph.create 3 [] in
  check_close "edgeless lightness" 1.0 (Stats.lightness empty []);
  check_close "edgeless stretch" 1.0 (Stats.max_edge_stretch empty []);
  check_close "edgeless sampled stretch" 1.0
    (Stats.sampled_edge_stretch (rng ()) empty [] ~samples:8);
  check_close "edgeless root stretch" 1.0 (Stats.root_stretch empty [] ~root:0);
  (* Single vertex: connected, MST weight 0 — lightness was 0/0. *)
  let one = Graph.create 1 [] in
  check_close "single-vertex lightness" 1.0 (Stats.lightness one []);
  (* Disconnected host: vertices 2 and 3 are unreachable from the root
     in [g] itself, so they carry no defined stretch and must be
     skipped rather than poisoning the max with inf/inf = nan; vertex 1
     is reachable and served exactly. *)
  let disc =
    Graph.create 4
      [ { Graph.u = 0; v = 1; w = 1.0 }; { Graph.u = 2; v = 3; w = 1.0 } ]
  in
  check_close "disconnected root stretch" 1.0
    (Stats.root_stretch disc [ 0 ] ~root:0);
  let t = Tree.of_edges disc ~root:0 [ 0 ] in
  check_close "disconnected tree root stretch" 1.0
    (Stats.tree_root_stretch disc t ~root:0);
  (* Forest baseline on the disconnected host: both edges, weight 2. *)
  check_close "forest lightness on disconnected host" 0.5
    (Stats.lightness disc [ 0 ]);
  (* An empty spanner still fails honestly: edge endpoints are
     disconnected in H, so stretch diverges rather than going nan. *)
  check_inf "empty spanner stretch diverges" (Stats.max_edge_stretch disc []);
  let r = Stats.report (rng ()) empty [] in
  no_nan "report lightness" r.Stats.lightness;
  no_nan "report stretch" r.Stats.stretch

let test_root_stretch () =
  let g = diamond () in
  let mst = Mst_seq.kruskal g in
  (* From root 2: d_G(2,0) = 3 via 2-3-1-0; in MST same path: stretch 1. *)
  check_close "root stretch of mst from 2" 1.0 (Stats.root_stretch g mst ~root:2)

let test_metric_net_props () =
  let g = Gen.path 10 in
  check_close "separation of endpoints" 9.0 (Metric.separation g [ 0; 9 ]);
  check_close "covering radius of {0}" 9.0 (Metric.covering_radius g [ 0 ]);
  check_int "ball size" 5 (List.length (Metric.ball g ~center:2 ~radius:2.0))

(* ------------------------------------------------------------------ *)
(* Additional structure & generator properties                          *)

let test_subgraph_mapping () =
  let g = diamond () in
  let mst = Mst_seq.kruskal g in
  let sub, original = Graph.subgraph g mst in
  check_int "subgraph edges" 3 (Graph.m sub);
  check "ids map back" true
    (List.init (Graph.m sub) original |> List.sort Int.compare = mst);
  check "weights preserved" true
    (List.init (Graph.m sub) (fun i -> Graph.weight sub i = Graph.weight g (original i))
    |> List.for_all Fun.id)

let test_aspect_ratio () =
  let g = diamond () in
  check_close "aspect" 10.0 (Graph.weight_aspect_ratio g);
  check_close "edgeless aspect" 1.0 (Graph.weight_aspect_ratio (Graph.create 3 []))

let prop_compare_edges_total_order =
  QCheck2.Test.make ~name:"compare_edges is a strict total order" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.erdos_renyi rng ~n:20 ~p:0.4 ~w_lo:1.0 ~w_hi:3.0 () in
      let m = Graph.m g in
      let ids = List.init m Fun.id in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let c1 = Graph.compare_edges g a b and c2 = Graph.compare_edges g b a in
              if a = b then c1 = 0 else c1 = -c2 && c1 <> 0)
            ids)
        ids)

let prop_path_to_realizes_distance =
  QCheck2.Test.make ~name:"dijkstra path realizes the distance" ~count:25
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 77 |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.2 () in
      let src = seed mod n in
      let sp = Paths.dijkstra g src in
      List.for_all
        (fun v ->
          match Paths.path_to sp g v with
          | None -> false
          | Some path ->
            let rec len = function
              | a :: (b :: _ as rest) ->
                (match Graph.find_edge g a b with
                | Some e -> Graph.weight g e +. len rest
                | None -> infinity)
              | _ -> 0.0
            in
            Float.abs (len path -. sp.Paths.dist.(v)) <= 1e-9 *. (1.0 +. sp.Paths.dist.(v)))
        (List.init n Fun.id))

let prop_all_pairs_symmetric =
  QCheck2.Test.make ~name:"all-pairs distances symmetric & triangle" ~count:10
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed; 3 |] in
      let g = Gen.erdos_renyi rng ~n:15 ~p:0.4 () in
      let d = Paths.all_pairs g in
      let n = Graph.n g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Float.abs (d.(i).(j) -. d.(j).(i)) > 1e-9 then ok := false;
          for l = 0 to n - 1 do
            if d.(i).(j) > d.(i).(l) +. d.(l).(j) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let test_euler_interval_api () =
  let g = diamond () in
  let t = Tree.of_edges g ~root:0 (Mst_seq.kruskal g) in
  let e = Euler.of_tree t in
  let lo, hi = Euler.interval e 0 in
  check_close "root interval start" 0.0 lo;
  check_close "root interval end = total" e.Euler.total hi;
  check_int "first position of root" 0 (Euler.first_position e 0);
  (* Subtree intervals nest. *)
  let lo1, hi1 = Euler.interval e 1 in
  check "child nests" true (lo <= lo1 && hi1 <= hi);
  check_close "dist along" (Float.abs (e.Euler.time.(2) -. e.Euler.time.(0)))
    (Euler.dist_along e 0 2)

let prop_heavy_tailed_weights_in_range =
  QCheck2.Test.make ~name:"heavy-tailed weights within [1, range]" ~count:10
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = Random.State.make [| seed; 9 |] in
      let g = Gen.heavy_tailed rng ~n:30 ~p:0.3 ~range:1e3 () in
      Graph.fold_edges g (fun _ e acc -> acc && e.Graph.w >= 0.99 && e.Graph.w <= 1001.0) true)

let prop_geometric_weights_are_distances =
  QCheck2.Test.make ~name:"geometric graph weights = euclidean distances" ~count:10
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = Random.State.make [| seed; 10 |] in
      let g, pts = Gen.random_geometric rng ~n:30 ~radius:0.4 () in
      Graph.fold_edges g
        (fun _ e acc ->
          let dx = pts.(e.Graph.u).(0) -. pts.(e.Graph.v).(0) in
          let dy = pts.(e.Graph.u).(1) -. pts.(e.Graph.v).(1) in
          acc && Float.abs (Float.sqrt ((dx *. dx) +. (dy *. dy)) -. e.Graph.w) <= 1e-9)
        true)

(* The Zipf sampler is pinned exactly on a fixed seed: the workload
   generators and benches rely on replayability, so a silent change to
   the CDF or the search would skew every committed number. *)
let test_zipf_pinned () =
  let rng = Random.State.make [| 0x21f; 9 |] in
  let sample = Gen.zipf_sampler rng ~s:1.2 ~n:8 in
  let counts = Array.make 8 0 in
  for _ = 1 to 4000 do
    let r = sample () in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check (array int))
    "pinned zipf histogram (seed 0x21f;9, s=1.2, n=8, 4000 draws)"
    [| 1742; 701; 491; 331; 259; 187; 161; 128 |]
    counts;
  (* And the shape holds: rank frequencies are non-increasing. *)
  for r = 0 to 6 do
    check (Printf.sprintf "count rank %d >= rank %d" r (r + 1)) true
      (counts.(r) >= counts.(r + 1))
  done

let test_zipf_degenerate () =
  (* s = 0 is uniform: every rank reachable, bounds respected. *)
  let rng = Random.State.make [| 3; 3 |] in
  let sample = Gen.zipf_sampler rng ~s:0.0 ~n:5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let r = sample () in
    check "rank in range" true (r >= 0 && r < 5);
    seen.(r) <- true
  done;
  check "uniform regime reaches every rank" true (Array.for_all Fun.id seen);
  check_int "n=1 always rank 0" 0 (Gen.zipf (Random.State.make [| 1 |]) ~s:2.0 ~n:1);
  check "rejects n=0" true
    (match Gen.zipf rng ~s:1.0 ~n:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_graph_io_roundtrip =
  QCheck2.Test.make ~name:"graph io roundtrip" ~count:15
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 5000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 100 |] in
      let g = Gen.heavy_tailed rng ~n ~p:0.25 ~range:1e4 () in
      let path = Filename.temp_file "lightnet" ".dimacs" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Graph_io.save_graph path g;
          let g2 = Graph_io.load_graph path in
          Graph.n g = Graph.n g2
          && Graph.m g = Graph.m g2
          && List.init (Graph.m g) (fun i ->
                 Graph.endpoints g i = Graph.endpoints g2 i
                 && Float.abs (Graph.weight g i -. Graph.weight g2 i)
                    <= 1e-12 *. Graph.weight g i)
             |> List.for_all Fun.id))

let test_edge_set_io () =
  let path = Filename.temp_file "lightnet" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save_edge_set path [ 4; 1; 9; 0 ];
      check "edge set roundtrip" true (Graph_io.load_edge_set path = [ 4; 1; 9; 0 ]))

(* Every malformed graph or edge-set file fails with a [Failure] that
   names the offending line — never a silent partial load, an
   [Invalid_argument], or a stray [End_of_file]/[Scan_failure]. *)
let test_io_rejects_bad_lines () =
  let with_file text f =
    let path = Filename.temp_file "lightnet" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> output_string oc text);
        f path)
  in
  let names_line msg line =
    let tag = Printf.sprintf ": line %d: " line in
    let k = String.length tag in
    let rec scan i =
      i + k <= String.length msg && (String.sub msg i k = tag || scan (i + 1))
    in
    scan 0
  in
  let rejects load (name, text, line) =
    match with_file text load with
    | () -> Alcotest.failf "%s: loaded" name
    | exception Failure msg ->
      if not (names_line msg line) then
        Alcotest.failf "%s: %S does not name line %d" name msg line
  in
  List.iter
    (rejects (fun p -> ignore (Graph_io.load_graph p)))
    [
      ("short edge line", "p edge 3 2\ne 1 2\ne 2 3 1.0\n", 2);
      ("non-numeric weight", "p edge 3 1\ne 1 2 x\n", 2);
      ("run-together fields", "p edge 40 1\ne 12 34.5\n", 2);
      ("trailing field", "p edge 3 1\ne 1 2 1.0 9\n", 2);
      ("endpoint 0", "p edge 3 1\ne 0 2 1.0\n", 2);
      ("endpoint above n", "p edge 3 1\ne 1 4 1.0\n", 2);
      ("negative weight", "p edge 3 1\ne 1 2 -1\n", 2);
      ("zero weight", "p edge 3 1\ne 1 2 0\n", 2);
      ("infinite weight", "p edge 3 1\ne 1 2 inf\n", 2);
      ("nan weight", "p edge 3 1\ne 1 2 nan\n", 2);
      ("malformed problem line", "c g\np edge x 1\n", 2);
      ("negative n", "p edge -3 0\n", 1);
      ("second problem line", "p edge 3 0\np edge 3 0\n", 2);
      ("edge before problem line", "e 1 2 1.0\np edge 3 1\n", 1);
      ("missing problem line", "c only a comment\n", 2);
      ("empty file", "", 1);
      ("unexpected line", "p edge 3 1\ne 1 2 1.0\nx 1\n", 3);
      ("truncated: fewer edges than declared", "c g\np edge 3 2\ne 1 2 1.0\n", 2);
      ("more edges than declared", "p edge 3 1\ne 1 2 1.0\ne 2 3 1.0\n", 1);
    ];
  List.iter
    (rejects (fun p -> ignore (Graph_io.load_edge_set p)))
    [
      ("non-numeric id", "1\nx\n", 2);
      ("negative id", "1\n-2\n", 2);
      ("truncated edge set", "# lightnet edge set (3 edges)\n4\n1\n", 1);
    ];
  (* Comments, blank lines and tabs are still fine. *)
  let g =
    with_file "c g\n\np edge 3 2\ne\t1 2 1.0\n\ne 2 3 2.5\n" Graph_io.load_graph
  in
  check_int "n" 3 (Graph.n g);
  check_int "m" 2 (Graph.m g);
  check "edge set without header" true
    (with_file "# ids\n3\n\n0\n" Graph_io.load_edge_set = [ 3; 0 ])

(* ------------------------------------------------------------------ *)
(* CSR substrate: the flat representation must be observation-
   equivalent to the legacy tuple-array adjacency, and the streaming
   constructor equivalent to [create]. *)

(* Random raw edge stream with self-loops, parallel edges and
   duplicate weights — everything the builder has to normalize. *)
let raw_edges rng n k =
  List.init k (fun _ ->
      {
        Graph.u = Random.State.int rng n;
        v = Random.State.int rng n;
        w = float_of_int (1 + Random.State.int rng 20) /. 2.0;
      })

let prop_csr_matches_legacy =
  QCheck2.Test.make ~name:"csr adjacency = legacy tuple adjacency" ~count:60
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 0xc5a |] in
      let edges = raw_edges rng n (3 * n) in
      let g = Graph.create n edges in
      (* Independent model: lightest weight per normalized endpoint
         pair, self-loops dropped. *)
      let model = Hashtbl.create 64 in
      List.iter
        (fun e ->
          if e.Graph.u <> e.Graph.v then begin
            let k = (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v) in
            match Hashtbl.find_opt model k with
            | Some w when w <= e.Graph.w -> ()
            | _ -> Hashtbl.replace model k e.Graph.w
          end)
        edges;
      Graph.m g = Hashtbl.length model
      && List.for_all
           (fun v ->
             let via_fold =
               List.rev
                 (Graph.fold_neighbors g v (fun acc id u -> (id, u) :: acc) [])
             in
             let via_iter = ref [] in
             Graph.iter_neighbors g v (fun id u -> via_iter := (id, u) :: !via_iter);
             let vw = Graph.view g in
             let via_view =
               List.init
                 (vw.Graph.off.(v + 1) - vw.Graph.off.(v))
                 (fun i ->
                   let p = vw.Graph.off.(v) + i in
                   (vw.Graph.adj_eid.(p), vw.Graph.adj_dst.(p)))
             in
             List.rev !via_iter = via_fold
             && via_view = via_fold
             && List.for_all
                  (fun (id, _) -> vw.Graph.ew.(id) = Graph.weight g id)
                  via_view
             && Graph.degree g v = List.length via_fold
             (* ascending edge ids, the documented iteration order *)
             && List.sort Int.compare (List.map fst via_fold) = List.map fst via_fold
             && List.for_all
                  (fun (id, u) ->
                    let a, b = Graph.endpoints g id in
                    a < b
                    && Graph.other_end g id v = u
                    && Graph.other_end g id u = v
                    && Hashtbl.find_opt model (min u v, max u v)
                       = Some (Graph.weight g id))
                  via_fold)
           (List.init n Fun.id))

let prop_of_edge_arrays_equals_create =
  QCheck2.Test.make ~name:"of_edge_arrays = create on the same stream" ~count:60
    QCheck2.Gen.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 0x0ea |] in
      let edges = raw_edges rng n (4 * n) in
      let g1 = Graph.create n edges in
      let k = List.length edges in
      let us = Array.make k 0 and vs = Array.make k 0 and ws = Array.make k 0.0 in
      List.iteri
        (fun i e ->
          us.(i) <- e.Graph.u;
          vs.(i) <- e.Graph.v;
          ws.(i) <- e.Graph.w)
        edges;
      let g2 = Graph.of_edge_arrays ~n us vs ws in
      Graph.n g1 = Graph.n g2
      && Graph.m g1 = Graph.m g2
      && List.for_all
           (fun id ->
             Graph.endpoints g1 id = Graph.endpoints g2 id
             && Graph.weight g1 id = Graph.weight g2 id)
           (List.init (Graph.m g1) Fun.id))

(* The builder's ascending fast path against its sort path. A graph's
   own columns arrive strictly ascending, so rebuilding from them skips
   the sort; the same edges shuffled, each with a heavier duplicate
   (endpoints flipped), go through the sort and the dedup. Both builds
   must match the graph column by column, including n <= 1 and m = 0. *)
let prop_ascending_fast_path =
  QCheck2.Test.make ~name:"ascending fast path = sort path, column by column"
    ~count:80
    QCheck2.Gen.(triple (int_range 0 30) (int_range 0 3) (int_range 0 10_000))
    (fun (n, density, seed) ->
      let rng = Random.State.make [| seed; 0xa5c |] in
      let edges = if n = 0 then [] else raw_edges rng n (density * n) in
      let g = Graph.create n edges in
      let m = Graph.m g in
      let vw = Graph.view g in
      let fast = Graph.of_edge_arrays ~n ~len:m vw.Graph.eu vw.Graph.ev vw.Graph.ew in
      let k = 2 * m in
      let us = Array.make k 0 and vs = Array.make k 0 and ws = Array.make k 0.0 in
      for id = 0 to m - 1 do
        us.(2 * id) <- vw.Graph.eu.(id);
        vs.(2 * id) <- vw.Graph.ev.(id);
        ws.(2 * id) <- vw.Graph.ew.(id);
        us.((2 * id) + 1) <- vw.Graph.ev.(id);
        vs.((2 * id) + 1) <- vw.Graph.eu.(id);
        ws.((2 * id) + 1) <- 2.0 *. vw.Graph.ew.(id)
      done;
      for i = k - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let swap a =
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        in
        swap us;
        swap vs;
        swap ws
      done;
      let sorted = Graph.of_edge_arrays ~n us vs ws in
      let columns h =
        let v = Graph.view h in
        (Graph.n h, Graph.m h, v.Graph.eu, v.Graph.ev, v.Graph.ew, v.Graph.off,
         v.Graph.adj_eid, v.Graph.adj_dst)
      in
      columns fast = columns g && columns sorted = columns g)

let test_of_edge_arrays_validates () =
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph.of_edge_arrays: endpoint out of range") (fun () ->
      ignore (Graph.of_edge_arrays ~n:2 [| 0 |] [| 5 |] [| 1.0 |]));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.of_edge_arrays: weight must be positive and finite")
    (fun () -> ignore (Graph.of_edge_arrays ~n:2 [| 0 |] [| 1 |] [| nan |]));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Graph.of_edge_arrays: negative n") (fun () ->
      ignore (Graph.of_edge_arrays ~n:(-1) [||] [||] [||]));
  (* len restricts to a prefix *)
  let g = Graph.of_edge_arrays ~n:3 ~len:1 [| 0; 1 |] [| 1; 2 |] [| 1.0; 1.0 |] in
  check_int "len prefix" 1 (Graph.m g)

(* ------------------------------------------------------------------ *)
(* RMAT generator: replayable across refactors. The exact edge set for
   a fixed seed is pinned — m, the max degree, and an FNV-1a digest of
   the first 64 edges — so any change to the recursion, the noise
   model or the builder's dedup shows up here, not as silent drift in
   committed BENCH numbers. *)

let fnv1a_64 ints =
  let prime = 0x100000001b3L in
  List.fold_left
    (fun h x -> Int64.mul (Int64.logxor h (Int64.of_int x)) prime)
    0xcbf29ce484222325L ints

let rmat_test_graph () =
  Gen.rmat (Random.State.make [| 0xf00d; 20 |]) ~scale:10 ~edge_factor:8 ()

let test_rmat_pinned () =
  let g = rmat_test_graph () in
  check_int "n" 1024 (Graph.n g);
  check_int "pinned m" 6058 (Graph.m g);
  let maxdeg = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v > !maxdeg then maxdeg := Graph.degree g v
  done;
  check_int "pinned max degree" 354 !maxdeg;
  let first = ref [] in
  for id = min 63 (Graph.m g - 1) downto 0 do
    let u, v = Graph.endpoints g id in
    let wbits = Int64.to_int (Int64.bits_of_float (Graph.weight g id)) in
    first := u :: v :: wbits :: !first
  done;
  let digest = fnv1a_64 !first in
  Alcotest.(check string)
    "pinned fnv digest of first 64 edges" "13b4ed73c487f455"
    (Printf.sprintf "%016Lx" digest)

let test_rmat_structure () =
  let g = rmat_test_graph () in
  (* Simple-graph invariants survive the builder. *)
  Graph.iter_edges g (fun _ e ->
      check "no self loop" true (e.Graph.u <> e.Graph.v);
      check "normalized" true (e.Graph.u < e.Graph.v);
      check "weight in range" true (e.Graph.w >= 1.0 && e.Graph.w <= 100.0));
  (* Determinism: same seed, same graph. *)
  let g2 = rmat_test_graph () in
  check_int "replayed m" (Graph.m g) (Graph.m g2);
  check "replayed edges" true
    (List.init (Graph.m g) (fun id ->
         Graph.endpoints g id = Graph.endpoints g2 id
         && Graph.weight g id = Graph.weight g2 id)
    |> List.for_all Fun.id);
  check "rejects scale 0" true
    (match Gen.rmat_edges (rng ()) ~scale:0 ~edge_factor:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed5 |]) t

let () =
  Alcotest.run "ln_graph"
    [
      ( "structures",
        [
          Alcotest.test_case "union find" `Quick test_union_find;
          Alcotest.test_case "pqueue sorts" `Quick test_pqueue_sorts;
          qcheck prop_pqueue_matches_reference;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "parallel edges" `Quick test_graph_collapses_parallel;
          Alcotest.test_case "bad input" `Quick test_graph_rejects_bad_input;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "hop diameter" `Quick test_hop_diameter;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
          Alcotest.test_case "dijkstra bound" `Quick test_dijkstra_bound;
          Alcotest.test_case "dijkstra multi" `Quick test_dijkstra_multi;
          qcheck prop_dijkstra_matches_reference;
        ] );
      ( "mst",
        [
          Alcotest.test_case "diamond" `Quick test_mst_diamond;
          qcheck prop_kruskal_equals_prim;
          qcheck prop_mst_weight_minimal;
        ] );
      ( "tree+euler",
        [
          Alcotest.test_case "tree structure" `Quick test_tree_structure;
          Alcotest.test_case "tree rejects cycle" `Quick test_tree_rejects_cycle;
          Alcotest.test_case "paper figure" `Quick test_euler_paper_figure;
          qcheck prop_euler_invariants;
        ] );
      ( "gen+stats",
        [
          Alcotest.test_case "generators connected" `Quick test_generators_connected;
          Alcotest.test_case "stats identities" `Quick test_stats_identity;
          Alcotest.test_case "root stretch" `Quick test_root_stretch;
          Alcotest.test_case "degenerate stats stay finite or pinned" `Quick
            test_stats_degenerate;
          Alcotest.test_case "metric props" `Quick test_metric_net_props;
          Alcotest.test_case "zipf pinned histogram" `Quick test_zipf_pinned;
          Alcotest.test_case "zipf degenerate" `Quick test_zipf_degenerate;
          qcheck prop_heavy_tailed_weights_in_range;
          qcheck prop_geometric_weights_are_distances;
        ] );
      ( "structure-extra",
        [
          Alcotest.test_case "subgraph mapping" `Quick test_subgraph_mapping;
          Alcotest.test_case "aspect ratio" `Quick test_aspect_ratio;
          qcheck prop_compare_edges_total_order;
          qcheck prop_path_to_realizes_distance;
          qcheck prop_all_pairs_symmetric;
          Alcotest.test_case "euler interval api" `Quick test_euler_interval_api;
          qcheck prop_graph_io_roundtrip;
          Alcotest.test_case "edge set io" `Quick test_edge_set_io;
          Alcotest.test_case "io rejects bad lines" `Quick
            test_io_rejects_bad_lines;
        ] );
      ( "csr+rmat",
        [
          qcheck prop_csr_matches_legacy;
          qcheck prop_of_edge_arrays_equals_create;
          Alcotest.test_case "of_edge_arrays validates" `Quick
            test_of_edge_arrays_validates;
          Alcotest.test_case "rmat pinned" `Quick test_rmat_pinned;
          Alcotest.test_case "rmat structure" `Quick test_rmat_structure;
          qcheck prop_ascending_fast_path;
        ] );
    ]
