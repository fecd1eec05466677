module Graph = Ln_graph.Graph
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Dist_mst = Ln_mst.Dist_mst
module Euler_dist = Ln_traversal.Euler_dist
module Tour_table = Ln_traversal.Tour_table

type t = {
  edges : int list;
  k : int;
  epsilon : float;
  stretch_bound : float;
  light_bucket_edges : int;
  bucket_edges : int;
  buckets_case1 : int;
  buckets_case2 : int;
  ledger : Ln_congest.Ledger.t;
}

let build ~rng g ~k ~epsilon =
  if k < 1 then invalid_arg "Light_spanner.build: k must be >= 1";
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Light_spanner.build: epsilon must be in (0, 1)";
  Telemetry.span "light-spanner" @@ fun () ->
  let n = Graph.n g in
  let ledger = Ledger.create () in
  (* MST + Euler tour; every vertex learns its tour appearances, and L
     is globally known (an O(D) convergecast in the paper; here it is
     the tour total). *)
  let dist, tour =
    Telemetry.span "mst+euler" (fun () ->
        let dist = Dist_mst.run g in
        (dist, Euler_dist.run dist ~rt:0))
  in
  Ledger.merge ledger ~prefix:"mst+euler" dist.Dist_mst.ledger;
  let bfs = dist.Dist_mst.bfs in
  let tt = Tour_table.make g tour in
  let l_total = tour.Euler_dist.total in
  let spanner = Hashtbl.create (4 * n) in
  let keep e = Hashtbl.replace spanner e () in
  List.iter keep dist.Dist_mst.mst_edges;
  (* Light bucket E': Baswana-Sen. *)
  let classify = Buckets.classify ~l_total ~epsilon ~n in
  let bucket_of = Array.init (Graph.m g) (fun e -> classify (Graph.weight g e)) in
  let bs =
    Telemetry.span ~ledger "baswana-sen(E')" (fun () ->
        Baswana_sen.build ~edge_ok:(fun e -> bucket_of.(e) = `Light) ~rng ~k g)
  in
  List.iter keep bs.Baswana_sen.edges;
  (* Weight buckets. *)
  let nbuckets = Buckets.bucket_count ~epsilon ~n in
  let case1 = ref 0 and case2 = ref 0 in
  let bucket_edge_count = ref 0 in
  for i = 0 to nbuckets - 1 do
    let in_bucket e = bucket_of.(e) = `Bucket i in
    let bucket_nonempty =
      let found = ref false in
      Graph.iter_edges g (fun e _ -> if in_bucket e then found := true);
      !found
    in
    if bucket_nonempty then begin
      let chosen =
        match Buckets.assign g ~tt ~l_total ~epsilon ~k ~i with
        | Buckets.Global { nclusters; cluster_of } ->
          incr case1;
          Telemetry.span (Printf.sprintf "bucket-%d/case1" i) (fun () ->
              Cluster_sim.case1 ~rng g ~bfs ~k ~nclusters ~cluster_of ~in_bucket
                ledger)
        | Buckets.Interval { centers; cluster_of; chosen_pos; max_interval = _ } ->
          incr case2;
          Telemetry.span (Printf.sprintf "bucket-%d/case2" i) (fun () ->
              Cluster_sim.case2 ~rng g ~tt ~k ~centers ~cluster_of ~chosen_pos
                ~in_bucket ledger)
      in
      List.iter
        (fun e ->
          if not (Hashtbl.mem spanner e) then incr bucket_edge_count;
          keep e)
        chosen
    end
  done;
  let edges = List.sort Int.compare (Hashtbl.fold (fun e () acc -> e :: acc) spanner []) in
  {
    edges;
    k;
    epsilon;
    stretch_bound = float_of_int ((2 * k) - 1) *. (1.0 +. (6.0 *. epsilon));
    light_bucket_edges = List.length bs.Baswana_sen.edges;
    bucket_edges = !bucket_edge_count;
    buckets_case1 = !case1;
    buckets_case2 = !case2;
    ledger;
  }
