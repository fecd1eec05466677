(* Deep tests for the distributed primitives: forest passes, tree
   fragment decomposition, interval protocols, exchanges, keyed
   aggregation corner cases, and the tree broadcast against its
   queue-based specification. *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Gen = Ln_graph.Gen
module Mst_seq = Ln_graph.Mst_seq
module Engine = Ln_congest.Engine
module Fault = Ln_congest.Fault
module Bfs = Ln_prim.Bfs
module Broadcast = Ln_prim.Broadcast
module Forest = Ln_prim.Forest
module Tree_frags = Ln_prim.Tree_frags
module Exchange = Ln_prim.Exchange
module Keyed = Ln_prim.Keyed
module Dist_mst = Ln_mst.Dist_mst
module Euler_dist = Ln_traversal.Euler_dist
module Tour_table = Ln_traversal.Tour_table
module Intervals = Ln_spanner.Intervals

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_graph seed n =
  let rng = Random.State.make [| seed; 123 |] in
  Gen.erdos_renyi rng ~n ~p:0.15 ()

(* A random forest over the MST: cut each MST edge with probability
   1/3; roots are the minimum vertex of each component. *)
let random_forest seed g =
  let rng = Random.State.make [| seed; 7 |] in
  let mst = Mst_seq.kruskal g in
  let kept = List.filter (fun _ -> Random.State.int rng 3 > 0) mst in
  let n = Graph.n g in
  let uf = Ln_graph.Union_find.create n in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      ignore (Ln_graph.Union_find.union uf u v))
    kept;
  let min_of_comp = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let r = Ln_graph.Union_find.find uf v in
    match Hashtbl.find_opt min_of_comp r with
    | Some m when m <= v -> ()
    | _ -> Hashtbl.replace min_of_comp r v
  done;
  let is_root v = Hashtbl.find min_of_comp (Ln_graph.Union_find.find uf v) = v in
  let tree_edges = Array.make n [] in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      tree_edges.(u) <- e :: tree_edges.(u);
      tree_edges.(v) <- e :: tree_edges.(v))
    kept;
  (tree_edges, is_root)

(* ------------------------------------------------------------------ *)
(* Forest                                                              *)

let prop_forest_orient =
  QCheck2.Test.make ~name:"forest orient: every vertex reaches a root" ~count:20
    QCheck2.Gen.(pair (int_range 2 60) (int_range 0 5000))
    (fun (n, seed) ->
      let g = random_graph seed n in
      let tree_edges, is_root = random_forest seed g in
      let parent_edge, _ = Forest.orient g ~tree_edges ~is_root in
      (* Walking parents always terminates at a root. *)
      let ok = ref true in
      for v = 0 to n - 1 do
        let rec walk v steps =
          if steps > n then false
          else if parent_edge.(v) = -1 then is_root v
          else if parent_edge.(v) = -2 then false
          else walk (Graph.other_end g parent_edge.(v) v) (steps + 1)
        in
        if not (walk v 0) then ok := false
      done;
      !ok)

let prop_forest_up_subtree_sums =
  QCheck2.Test.make ~name:"forest up computes subtree sums" ~count:20
    QCheck2.Gen.(pair (int_range 2 50) (int_range 0 5000))
    (fun (n, seed) ->
      let g = random_graph seed n in
      let tree_edges, is_root = random_forest seed g in
      let parent_edge, _ = Forest.orient g ~tree_edges ~is_root in
      let sums, _, _ =
        Forest.up g ~parent_edge ~tree_edges
          ~compute:(fun v kids -> v + List.fold_left (fun a (_, x) -> a + x) 0 kids)
      in
      (* Every root's value equals the sum of its component's ids. *)
      let comp_sum = Hashtbl.create 8 in
      let root_of = Array.make n (-1) in
      for v = 0 to n - 1 do
        let rec find v = if parent_edge.(v) < 0 then v else find (Graph.other_end g parent_edge.(v) v) in
        let r = find v in
        root_of.(v) <- r;
        Hashtbl.replace comp_sum r (v + Option.value ~default:0 (Hashtbl.find_opt comp_sum r))
      done;
      Hashtbl.fold (fun r total acc -> acc && sums.(r) = total) comp_sum true)

let prop_forest_down_depths =
  QCheck2.Test.make ~name:"forest down distributes root depth" ~count:20
    QCheck2.Gen.(pair (int_range 2 50) (int_range 0 5000))
    (fun (n, seed) ->
      let g = random_graph seed n in
      let tree_edges, is_root = random_forest seed g in
      let parent_edge, _ = Forest.orient g ~tree_edges ~is_root in
      let depth, _ =
        Forest.down g ~parent_edge ~tree_edges
          ~seed:(fun v -> if parent_edge.(v) = -1 then Some 0 else None)
          ~emit:(fun _ d _ -> d + 1)
      in
      let ok = ref true in
      for v = 0 to n - 1 do
        let rec hops v = if parent_edge.(v) < 0 then 0 else 1 + hops (Graph.other_end g parent_edge.(v) v) in
        match depth.(v) with
        | Some d -> if d <> hops v then ok := false
        | None -> ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tree fragments                                                      *)

let prop_tree_frags_invariants =
  QCheck2.Test.make ~name:"tree fragment decomposition invariants" ~count:25
    QCheck2.Gen.(pair (int_range 2 100) (int_range 0 5000))
    (fun (n, seed) ->
      let g = random_graph seed n in
      let mst = Mst_seq.kruskal g in
      let parent_edge = (Tree.view (Tree.of_edges g ~root:0 mst)).Tree.parent_edge in
      let target = max 2 (int_of_float (Float.sqrt (float_of_int n))) in
      let f = Tree_frags.decompose g ~parent_edge ~root:0 ~target_size:target in
      (* 1. frag_of covers all; roots are inside their fragments. *)
      Array.for_all (fun x -> x >= 0 && x < f.Tree_frags.count) f.Tree_frags.frag_of
      && Array.for_all
           (fun r -> f.Tree_frags.frag_of.(r) >= 0)
           f.Tree_frags.root_of
      (* 2. internal parents stay inside the fragment. *)
      && Array.for_all2
           (fun v_frag ip ->
             ip = -1 || ignore v_frag = ())
           f.Tree_frags.frag_of f.Tree_frags.internal_parent
      (* 3. fragment count is O(n / target) + O(n/target) extra. *)
      && f.Tree_frags.count <= (4 * (n / target)) + 4
      (* 4. parent_frag forms a forest rooted at rt's fragment. *)
      &&
      let top = f.Tree_frags.frag_of.(0) in
      let rec climb fr steps =
        if steps > f.Tree_frags.count then false
        else if fr = top then true
        else climb f.Tree_frags.parent_frag.(fr) (steps + 1)
      in
      List.for_all (fun fr -> climb fr 0) (List.init f.Tree_frags.count Fun.id))

let test_tree_frags_ext_children () =
  let g = random_graph 5 80 in
  let mst = Mst_seq.kruskal g in
  let parent_edge = (Tree.view (Tree.of_edges g ~root:0 mst)).Tree.parent_edge in
  let f = Tree_frags.decompose g ~parent_edge ~root:0 ~target_size:9 in
  (* Every non-top fragment appears exactly once as someone's external
     child. *)
  let seen = Array.make f.Tree_frags.count 0 in
  Array.iter
    (fun lst ->
      List.iter (fun (z, _) -> seen.(f.Tree_frags.frag_of.(z)) <- seen.(f.Tree_frags.frag_of.(z)) + 1) lst)
    f.Tree_frags.ext_children;
  let top = f.Tree_frags.frag_of.(0) in
  let ok = ref true in
  for fr = 0 to f.Tree_frags.count - 1 do
    let expected = if fr = top then 0 else 1 in
    if seen.(fr) <> expected then ok := false
  done;
  check "external children exactly once" true !ok

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)

let make_tour seed n =
  let g = random_graph seed n in
  let dist = Dist_mst.run g in
  let tour = Euler_dist.run dist ~rt:0 in
  (g, Tour_table.make g tour)

let prop_interval_aggregate =
  QCheck2.Test.make ~name:"interval aggregate = direct per-interval max" ~count:15
    QCheck2.Gen.(pair (int_range 3 50) (int_range 0 5000))
    (fun (n, seed) ->
      let g, tt = make_tour seed n in
      let len = tt.Tour_table.len in
      let rng = Random.State.make [| seed; 31 |] in
      (* Random centers (position 0 always). *)
      let centers = Array.init len (fun j -> j = 0 || Random.State.int rng 5 = 0) in
      let values = Array.init len (fun j -> if Random.State.bool rng then Some (float_of_int (j * 7 mod 23)) else None) in
      let agg, _ =
        Intervals.aggregate g ~tt
          ~is_center:(fun j -> centers.(j))
          ~value:(fun j -> values.(j))
          ~combine:Float.max
      in
      (* Direct computation. *)
      let direct = Array.make len None in
      let start = ref 0 in
      let flush stop =
        let v = ref None in
        for j = !start to stop do
          match values.(j), !v with
          | Some x, Some y -> v := Some (Float.max x y)
          | Some x, None -> v := Some x
          | None, _ -> ()
        done;
        for j = !start to stop do
          direct.(j) <- !v
        done
      in
      for j = 1 to len - 1 do
        if centers.(j) then begin
          flush (j - 1);
          start := j
        end
      done;
      flush (len - 1);
      agg = direct)

let prop_interval_gather =
  QCheck2.Test.make ~name:"interval gather collects every item at its center" ~count:15
    QCheck2.Gen.(pair (int_range 3 50) (int_range 0 5000))
    (fun (n, seed) ->
      let g, tt = make_tour seed n in
      let len = tt.Tour_table.len in
      let rng = Random.State.make [| seed; 41 |] in
      let centers = Array.init len (fun j -> j = 0 || Random.State.int rng 6 = 0) in
      let items = Array.init len (fun j -> List.init (Random.State.int rng 3) (fun i -> (j, i))) in
      let collected, _ =
        Intervals.gather g ~tt
          ~is_center:(fun j -> centers.(j))
          ~items:(fun j -> items.(j))
      in
      (* Direct: center of j = last center <= j. *)
      let expected = Array.make len [] in
      let cur = ref 0 in
      for j = 0 to len - 1 do
        if centers.(j) then cur := j;
        expected.(!cur) <- expected.(!cur) @ items.(j)
      done;
      let sort = List.sort compare in
      let ok = ref true in
      for j = 0 to len - 1 do
        if centers.(j) then begin
          if sort collected.(j) <> sort expected.(j) then ok := false
        end
        else if collected.(j) <> [] then ok := false
      done;
      !ok)

let test_interval_requires_center_zero () =
  let g, tt = make_tour 1 10 in
  check "raises without center 0" true
    (try
       ignore
         (Intervals.aggregate g ~tt ~is_center:(fun _ -> false) ~value:(fun _ -> None)
            ~combine:Float.max);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Exchange and keyed corner cases                                     *)

let test_exchange_floats () =
  let g = Gen.star 6 in
  let values = Array.init 6 (fun v -> float_of_int v *. 1.5) in
  let tables, stats = Exchange.floats g values in
  check_int "one round" 1 stats.Engine.rounds;
  check_int "center hears all" 5 (List.length tables.(0));
  check "leaf hears center" true
    (List.for_all (fun v -> List.map snd tables.(v) = [ 0.0 ]) [ 1; 2; 3; 4; 5 ])

let test_exchange_edge_filter () =
  let g = Gen.path 5 in
  (* Only even edges carry messages. *)
  let tables, _ =
    Exchange.payloads ~edge_ok:(fun e -> e mod 2 = 0) ~words:(fun _ -> 1) g
      (Array.init 5 Fun.id)
  in
  let total = Array.fold_left (fun a l -> a + List.length l) 0 tables in
  check_int "messages only on allowed edges" 4 total

let test_keyed_large_sparse_keyspace () =
  let rng = Random.State.make [| 3 |] in
  let g = Gen.erdos_renyi rng ~n:40 ~p:0.2 () in
  let tree, _ = Bfs.tree g ~root:0 in
  let nkeys = 1_000_000 in
  (* Sparse: only 5 distinct keys used. *)
  let local v = [ ((v mod 5) * 200_000, v) ] in
  let table, _ = Keyed.global_best g ~tree ~nkeys ~local ~better:(fun a b -> a > b) in
  let nonempty = Array.to_list table |> List.filter Option.is_some |> List.length in
  check_int "exactly five keys" 5 nonempty;
  check "max correct" true (table.(0) = Some 35)

let test_keyed_empty () =
  let g = Gen.path 8 in
  let tree, _ = Bfs.tree g ~root:0 in
  let table, stats =
    Keyed.global_best g ~tree ~nkeys:4 ~local:(fun _ -> []) ~better:(fun (_ : int) _ -> false)
  in
  check "all empty" true (Array.for_all Option.is_none table);
  check "terminates quickly" true (stats.Engine.rounds < 50)

(* ------------------------------------------------------------------ *)
(* Broadcast against the queue-based specification                     *)

(* ER, geometric, path, star (rooted at its centre, so several items
   reach the root in one round) and two disjoint ER components, the
   second outside the BFS tree. Returns the graph and the root. *)
let bcast_graph rng kind n =
  match kind with
  | 0 -> (Gen.ensure_connected rng (Gen.erdos_renyi rng ~n ~p:0.15 ()), Random.State.int rng n)
  | 1 ->
    ( Gen.ensure_connected rng (fst (Gen.random_geometric rng ~n ~radius:0.35 ())),
      Random.State.int rng n )
  | 2 -> (Gen.path n, Random.State.int rng n)
  | 3 -> (Gen.star n, 0)
  | _ ->
    let half = n / 2 in
    let edges shift g =
      Graph.fold_edges g
        (fun _ (e : Graph.edge) acc -> { e with Graph.u = e.u + shift; v = e.v + shift } :: acc)
        []
    in
    let a = Gen.erdos_renyi rng ~n:half ~p:0.3 () in
    let b = Gen.erdos_renyi rng ~n:(n - half) ~p:0.3 () in
    (Graph.create n (edges 0 a @ edges half b), Random.State.int rng half)

(* Fault-free, random drops, and link-failure windows on two tree
   edges (permanent ones stall the run at the cap). *)
let bcast_plans rng tree =
  let tree_edges = Array.of_list (Tree.edges tree) in
  let window () =
    let from_round = Random.State.int rng 6 in
    {
      Fault.edge = tree_edges.(Random.State.int rng (Array.length tree_edges));
      from_round;
      until_round =
        (if Random.State.int rng 4 = 0 then None
         else Some (from_round + 1 + Random.State.int rng 12));
    }
  in
  let seed = Random.State.int rng 1000 in
  None
  :: Some (Fault.make ~drop_prob:0.05 ~seed ())
  ::
  (if tree_edges = [||] then []
   else [ Some (Fault.make ~link_failures:[ window (); window () ] ~seed ()) ])

let prop_broadcast_spec =
  QCheck2.Test.make
    ~name:"broadcast = queue specification (lists, stats; faults; both backends)" ~count:40
    QCheck2.Gen.(triple (int_range 0 4) (int_range 2 40) (int_range 0 5000))
    (fun (kind, n, seed) ->
      let rng = Random.State.make [| seed; 71 |] in
      let g, root = bcast_graph rng kind n in
      let tree, _ = Bfs.tree g ~root in
      (* Values repeat on purpose: the broadcast must follow item
         identity, not item value. *)
      let value () = Random.State.int rng 50 in
      let items =
        Array.init n (fun _ ->
            if Random.State.int rng 3 = 0 then List.init (1 + Random.State.int rng 3) (fun _ -> value ())
            else [])
      in
      let down = List.init (Random.State.int rng 8) (fun _ -> value ()) in
      let words x = 1 + (x mod 3) in
      let agree plan backend =
        let run f =
          Option.iter Fault.reset plan;
          Engine.with_backend backend (fun () ->
              match plan with
              | None -> f ()
              | Some p -> Engine.with_faults ~max_rounds:300 p f)
        in
        run (fun () -> Broadcast.all_to_all ~words g ~tree ~items)
        = run (fun () -> Broadcast_spec.all_to_all ~words g ~tree ~items)
        && run (fun () -> Broadcast.gather ~words g ~tree ~items)
           = run (fun () -> Broadcast_spec.gather ~words g ~tree ~items)
        && run (fun () -> Broadcast.downcast ~words g ~tree ~items:down)
           = run (fun () -> Broadcast_spec.downcast ~words g ~tree ~items:down)
      in
      List.for_all
        (fun plan -> agree plan Engine.Fast && agree plan Engine.Reference)
        (bcast_plans rng tree))

(* ------------------------------------------------------------------ *)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed9 |]) t

let () =
  Alcotest.run "ln_prim_deep"
    [
      ( "forest",
        [
          qcheck prop_forest_orient;
          qcheck prop_forest_up_subtree_sums;
          qcheck prop_forest_down_depths;
        ] );
      ( "tree-frags",
        [
          qcheck prop_tree_frags_invariants;
          Alcotest.test_case "ext children" `Quick test_tree_frags_ext_children;
        ] );
      ( "intervals",
        [
          qcheck prop_interval_aggregate;
          qcheck prop_interval_gather;
          Alcotest.test_case "center zero required" `Quick test_interval_requires_center_zero;
        ] );
      ( "exchange+keyed",
        [
          Alcotest.test_case "floats" `Quick test_exchange_floats;
          Alcotest.test_case "edge filter" `Quick test_exchange_edge_filter;
          Alcotest.test_case "sparse keyspace" `Quick test_keyed_large_sparse_keyspace;
          Alcotest.test_case "empty" `Quick test_keyed_empty;
        ] );
      ("broadcast", [ qcheck prop_broadcast_spec ]);
    ]
