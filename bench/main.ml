(* Experiment harness: regenerates the paper's results table (Table 1)
   and structural claims (Lemma 2, Figure 1, Section 8) empirically.

     dune exec bench/main.exe            # all experiments E1..E8
     dune exec bench/main.exe -- E2 E5   # a subset

   For every experiment we print the paper's bound next to measured
   quantities, with normalised columns (measured / bound-shape) whose
   stability across the sweep is the reproduction criterion — absolute
   constants are not expected to match a theory paper. EXPERIMENTS.md
   records a snapshot of this output. *)

open Lightnet

let pf = Format.printf

let header title paper =
  pf "@.== %s ==@." title;
  pf "paper: %s@." paper

let sqrtf n = Float.sqrt (float_of_int n)

(* Graph menu -------------------------------------------------------- *)

let er ~seed n = Gen.erdos_renyi (Random.State.make [| seed; 1 |]) ~n ~p:(8.0 /. float_of_int n) ()
let geo ~seed n =
  fst
    (Gen.random_geometric
       (Random.State.make [| seed; 2 |])
       ~n
       ~radius:(2.2 /. sqrtf n)
       ())
let heavy ~seed n = Gen.heavy_tailed (Random.State.make [| seed; 3 |]) ~n ~p:(8.0 /. float_of_int n) ~range:1e5 ()
let grid ~seed n =
  let side = int_of_float (sqrtf n) in
  Gen.grid (Random.State.make [| seed; 4 |]) ~rows:side ~cols:side ()

(* ------------------------------------------------------------------ *)
(* E1 — Table 1 row 1: the light spanner.                              *)

let e1 () =
  header "E1: light spanner (Theorem 2 / Table 1 row 1)"
    "stretch (2k-1)(1+eps); size O(k n^{1+1/k}); lightness O(k n^{1/k}); rounds \
     ~ n^{1/2+1/(4k+2)} + D";
  pf
    "%-6s %4s %2s | %7s %7s | %6s %9s | %7s %9s | %7s %7s %8s | %6s %6s@."
    "model" "n" "k" "stretch" "bound" "size" "sz/kn^1+" "light" "lt/kn^1/k" "native"
    "charged" "rnd/shape" "greedy" "g-lt";
  let run name g n k =
    let rng = Random.State.make [| n; k; 5 |] in
    let epsilon = 0.25 in
    let sp = Light_spanner.build ~rng g ~k ~epsilon in
    let stretch = Stats.max_edge_stretch g sp.Light_spanner.edges in
    let light = Stats.lightness g sp.Light_spanner.edges in
    let size = List.length sp.Light_spanner.edges in
    let fk = float_of_int k and fn = float_of_int n in
    let size_norm = float_of_int size /. (fk *. (fn ** (1.0 +. (1.0 /. fk)))) in
    let light_norm = light /. (fk *. (fn ** (1.0 /. fk))) in
    let d = Graph.hop_diameter g in
    let shape = (fn ** (0.5 +. (1.0 /. float_of_int ((4 * k) + 2)))) +. float_of_int d in
    let native = Ledger.native_total sp.Light_spanner.ledger in
    let charged = Ledger.charged_total sp.Light_spanner.ledger in
    let greedy = Greedy.build g ~stretch:(float_of_int ((2 * k) - 1)) in
    pf
      "%-6s %4d %2d | %7.3f %7.2f | %6d %9.3f | %7.2f %9.3f | %7d %7d %8.2f | %6d %6.2f@."
      name n k stretch sp.Light_spanner.stretch_bound size size_norm light light_norm
      native charged
      (float_of_int (native + charged) /. shape)
      (List.length greedy)
      (Stats.lightness g greedy)
  in
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          run "er" (er ~seed:1 n) n k;
          if k = 2 then run "geo" (geo ~seed:1 n) n k)
        [ 2; 3 ])
    [ 100; 200; 400 ];
  run "heavy" (heavy ~seed:1 200) 200 2

(* ------------------------------------------------------------------ *)
(* E2 — Table 1 row 2: shallow-light trees.                            *)

let e2 () =
  header "E2: shallow-light tree (Theorem 1 / Table 1 row 2)"
    "stretch 1+O(eps) with lightness 1+O(1/eps) (and the inverse regime via \
     BFN16); rounds ~ sqrt(n) + D";
  pf "%-9s %4s %8s | %7s %7s | %7s %7s | %7s %7s %9s | %8s %8s@."
    "regime" "n" "param" "stretch" "bound" "light" "bound" "native" "charged"
    "rnd/shape" "kry-str" "kry-lt";
  let shape g n = sqrtf n +. float_of_int (Graph.hop_diameter g) in
  let run g n regime param =
    let rng = Random.State.make [| n; 8 |] in
    let t =
      match regime with
      | `Eps -> Slt.build ~rng g ~rt:0 ~epsilon:param
      | `Gamma -> Slt.build_light ~rng g ~rt:0 ~gamma:param
    in
    let stretch = Stats.tree_root_stretch g t.Slt.tree ~root:0 in
    let light = Stats.lightness g t.Slt.edges in
    let kry = Kry95.build g ~rt:0 ~epsilon:(match regime with `Eps -> param | `Gamma -> 1.0) in
    pf "%-9s %4d %8.2f | %7.3f %7.1f | %7.3f %7.2f | %7d %7d %9.2f | %8.3f %8.2f@."
      (match regime with `Eps -> "eps" | `Gamma -> "gamma(BFN)")
      n param stretch t.Slt.stretch_bound light t.Slt.lightness_bound
      (Ledger.native_total t.Slt.ledger)
      (Ledger.charged_total t.Slt.ledger)
      (float_of_int (Ledger.total t.Slt.ledger) /. shape g n)
      (Stats.tree_root_stretch g kry.Kry95.tree ~root:0)
      (Stats.lightness g kry.Kry95.edges)
  in
  List.iter
    (fun n ->
      let g = er ~seed:2 n in
      List.iter (fun e -> run g n `Eps e) [ 1.0; 0.5; 0.25 ];
      List.iter (fun gm -> run g n `Gamma gm) [ 0.5; 0.25 ])
    [ 150; 300 ];
  let g = Gen.cycle ~w:2.0 301 in
  run g 301 `Eps 0.5

(* ------------------------------------------------------------------ *)
(* E3 — Table 1 row 3: nets.                                           *)

let e3 () =
  header "E3: (alpha,beta)-nets (Theorem 3 / Table 1 row 3)"
    "((1+d)Delta, Delta/(1+d))-net; O(log n) iterations; rounds ~ (sqrt n + D) x \
     subpolynomial (LE lists charged)";
  pf "%-6s %4s %8s | %5s %5s | %5s %8s | %7s %7s %9s | %6s@."
    "model" "n" "Delta" "|N|" "ok?" "iters" "it/log n" "native" "charged" "rnd/shape"
    "greedy";
  let run ?(frac = 6.0) name g n =
    let rng = Random.State.make [| n; 13 |] in
    let bfs, _ = Bfs.tree g ~root:0 in
    (* Mid-scale radius: a fraction of the weighted eccentricity. *)
    let ecc =
      Array.fold_left Float.max 0.0 (Paths.dijkstra g 0).Paths.dist
    in
    let radius = ecc /. frac in
    let net = Net.build ~rng g ~bfs ~radius ~delta:0.5 in
    let ok =
      Net.is_net g ~covering:net.Net.covering_bound
        ~separation:net.Net.separation_bound net.Net.points
    in
    let d = Graph.hop_diameter g in
    let shape = sqrtf n +. float_of_int d in
    let greedy = Greedy_net.build g ~radius in
    pf "%-6s %4d %8.1f | %5d %5b | %5d %8.2f | %7d %7d %9.2f | %6d@." name n radius
      (List.length net.Net.points)
      ok net.Net.iterations
      (float_of_int net.Net.iterations /. (Float.log (float_of_int n) /. Float.log 2.0))
      (Ledger.native_total net.Net.ledger)
      (Ledger.charged_total net.Net.ledger)
      (float_of_int (Ledger.total net.Net.ledger) /. shape)
      (List.length greedy)
  in
  List.iter (fun n -> run "er" (er ~seed:3 n) n) [ 100; 200; 400; 800 ];
  List.iter (fun n -> run ~frac:20.0 "er" (er ~seed:3 n) n) [ 200; 400 ];
  run "geo" (geo ~seed:3 200) 200;
  run ~frac:20.0 "geo" (geo ~seed:3 200) 200;
  run "grid" (grid ~seed:3 225) 225

(* ------------------------------------------------------------------ *)
(* E4 — Table 1 row 4: doubling spanner.                               *)

let e4 () =
  header "E4: doubling-graph light spanner (Theorem 5 / Table 1 row 4)"
    "stretch 1+eps; lightness eps^{-O(ddim)} log n; size n eps^{-O(ddim)} log n; \
     per-vertex work bounded by packing (max table)";
  pf "%-4s %4s %5s %5s | %7s %7s | %7s %9s | %6s %8s | %6s %9s@."
    "n" "m" "eps" "ddim" "stretch" "bound" "light" "lt/env" "size" "maxtable"
    "scales" "rounds";
  let run n epsilon =
    let g = geo ~seed:4 n in
    let rng = Random.State.make [| n; 21 |] in
    let ddim = Metric.estimate_ddim rng g in
    let sp = Doubling_spanner.build ~rng g ~epsilon in
    let stretch = Stats.max_edge_stretch g sp.Doubling_spanner.edges in
    let light = Stats.lightness g sp.Doubling_spanner.edges in
    let envelope = ((1.0 /. epsilon) ** 4.0) *. Float.log (float_of_int n) in
    pf "%-4d %4d %5.2f %5.2f | %7.3f %7.2f | %7.2f %9.3f | %6d %8d | %6d %9d@." n
      (Graph.m g) epsilon ddim stretch sp.Doubling_spanner.stretch_bound light
      (light /. envelope)
      (List.length sp.Doubling_spanner.edges)
      sp.Doubling_spanner.max_table sp.Doubling_spanner.scales
      (Ledger.total sp.Doubling_spanner.ledger)
  in
  List.iter (fun (n, e) -> run n e) [ (80, 0.5); (80, 0.3); (150, 0.5); (150, 0.3) ]

(* ------------------------------------------------------------------ *)
(* E5 — Lemma 2: the Euler tour round count.                           *)

let e5 () =
  header "E5: distributed Euler tour (Lemma 2)"
    "every vertex learns all its visit times in ~ sqrt(n) + D rounds";
  pf "%-6s %5s %5s %6s | %7s %7s | %9s@." "model" "n" "D" "sqrt n" "native" "charged"
    "rnd/shape";
  let run name g n =
    let dist = Dist_mst.run g in
    let before_native = Ledger.native_total dist.Dist_mst.ledger in
    let before_charged = Ledger.charged_total dist.Dist_mst.ledger in
    let _ = Euler_dist.run dist ~rt:0 in
    let native = Ledger.native_total dist.Dist_mst.ledger - before_native in
    let charged = Ledger.charged_total dist.Dist_mst.ledger - before_charged in
    let d = Graph.hop_diameter g in
    let shape = sqrtf n +. float_of_int d in
    pf "%-6s %5d %5d %6.1f | %7d %7d | %9.2f@." name n d (sqrtf n) native charged
      (float_of_int (native + charged) /. shape)
  in
  List.iter (fun n -> run "er" (er ~seed:5 n) n) [ 100; 400; 900; 1600; 2500 ];
  run "grid" (grid ~seed:5 900) 900;
  run "grid" (grid ~seed:5 1600) 1600;
  run "path" (Gen.path 900) 900

(* ------------------------------------------------------------------ *)
(* E6 — Figure 1 / §3.1: the base-fragment decomposition.              *)

let e6 () =
  header "E6: base fragments (Figure 1, KP98 phase 1)"
    "O(sqrt n) fragments, each of hop-diameter O(sqrt n)";
  pf "%-6s %5s %6s | %6s %9s | %7s %10s@." "model" "n" "sqrt n" "#frags" "frags/sqrt"
    "maxdiam" "diam/sqrt";
  let run name g n =
    let r = Dist_mst.run g in
    let base = r.Dist_mst.base in
    let maxd = Fragments.max_hop_diameter base in
    pf "%-6s %5d %6.1f | %6d %9.2f | %7d %10.2f@." name n (sqrtf n)
      base.Fragments.count
      (float_of_int base.Fragments.count /. sqrtf n)
      maxd
      (float_of_int maxd /. sqrtf n)
  in
  List.iter (fun n -> run "er" (er ~seed:6 n) n) [ 100; 400; 900; 1600; 2500 ];
  run "grid" (grid ~seed:6 900) 900;
  run "path" (Gen.path 1000) 1000;
  run "geo" (geo ~seed:6 400) 400

(* ------------------------------------------------------------------ *)
(* E7 — Section 8: the net-based MST-weight estimator.                 *)

let e7 () =
  header "E7: MST-weight estimation from nets (Theorem 7, run forward)"
    "L <= Psi <= O(alpha log n) L — the reduction powering the lower bound";
  pf "%-7s %5s %6s | %9s %9s %7s %9s | %6s@." "model" "n" "alpha" "L" "Psi" "Psi/L"
    "bound" "levels";
  let run name g n alpha =
    let rng = Random.State.make [| n; 34 |] in
    let bfs, _ = Bfs.tree g ~root:0 in
    let est = Mst_weight.estimate ~rng g ~bfs ~alpha in
    let l = Mst_seq.weight g in
    pf "%-7s %5d %6.1f | %9.1f %9.1f %7.2f %9.1f | %6d@." name n alpha l
      est.Mst_weight.psi
      (est.Mst_weight.psi /. l)
      est.Mst_weight.upper_factor
      (List.length est.Mst_weight.levels)
  in
  List.iter
    (fun n ->
      run "er" (er ~seed:7 n) n 2.0;
      run "heavy" (heavy ~seed:7 n) n 2.0)
    [ 100; 200; 400 ];
  run "er" (er ~seed:7 200) 200 1.5;
  run "er" (er ~seed:7 200) 200 4.0

(* ------------------------------------------------------------------ *)
(* E8 — Section 5 internals (the analysis subsection).                 *)

let e8 () =
  header "E8: light-spanner internals (Section 5.1 accounting)"
    "per-bucket contributions: E' handled by Baswana-Sen; bucket i edges weigh \
     <= w_i each; case split at i < log_{1+eps}(eps n^{k/(2k+1)})";
  let n = 300 in
  let g = heavy ~seed:8 n in
  let k = 2 and epsilon = 0.25 in
  let rng = Random.State.make [| 8; 8 |] in
  let sp = Light_spanner.build ~rng g ~k ~epsilon in
  let l_total = 2.0 *. Mst_seq.weight g in
  pf "n=%d m=%d k=%d eps=%.2f L=%.1f@." n (Graph.m g) k epsilon l_total;
  pf "buckets: %d in case 1 (global), %d in case 2 (intervals)@."
    sp.Light_spanner.buckets_case1 sp.Light_spanner.buckets_case2;
  pf "E' (Baswana-Sen) edges: %d; bucket edges: %d; total (with MST): %d@."
    sp.Light_spanner.light_bucket_edges sp.Light_spanner.bucket_edges
    (List.length sp.Light_spanner.edges);
  (* Weight-per-bucket accounting: every spanner edge's bucket weight
     cap, summed, reproduces the geometric-series argument of §5.1. *)
  let classify = Buckets.classify ~l_total ~epsilon ~n in
  let per_bucket = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key =
        match classify (Graph.weight g e) with
        | `Light -> -1
        | `Heavy -> -2
        | `Bucket i -> i
      in
      let c, w = Option.value ~default:(0, 0.0) (Hashtbl.find_opt per_bucket key) in
      Hashtbl.replace per_bucket key (c + 1, w +. Graph.weight g e))
    sp.Light_spanner.edges;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) per_bucket [] |> List.sort Int.compare in
  pf "%6s %6s %10s %10s@." "bucket" "edges" "weight" "cap w_i";
  List.iter
    (fun key ->
      let c, w = Hashtbl.find per_bucket key in
      let cap =
        match key with
        | -1 -> l_total /. float_of_int n
        | -2 -> infinity
        | i -> Buckets.bucket_width ~l_total ~epsilon i
      in
      let name = match key with -1 -> "E'" | -2 -> "heavy" | i -> string_of_int i in
      pf "%6s %6d %10.1f %10.2f@." name c w cap)
    keys;
  let lightness = Stats.lightness g sp.Light_spanner.edges in
  (* The full Section-5.1 bound carries an eps^{-(2+1/k)} factor that
     the O(k n^{1/k}) headline treats as constant. *)
  let envelope =
    float_of_int k
    *. (float_of_int n ** (1.0 /. float_of_int k))
    /. (epsilon ** (2.0 +. (1.0 /. float_of_int k)))
  in
  pf "lightness %.2f (analysis envelope k n^{1/k} eps^{-(2+1/k)} = %.1f); max stretch %.3f (bound %.2f)@."
    lightness envelope
    (Stats.max_edge_stretch g sp.Light_spanner.edges)
    sp.Light_spanner.stretch_bound

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

(* A1: what the central BP2 sparsification of §4.1 buys. *)
let a1 () =
  header "A1: SLT break points with vs without BP2 sparsification"
    "the lightness proof (Cor. 3) needs the filtered set; unfiltered anchors \
     inflate the break-point count (and, on adversarial instances, w(H))";
  pf "%-9s %5s %9s | %5s %8s %8s %7s@." "model" "n" "variant" "#BP" "H-light"
    "slt-lt" "stretch";
  let run name g n epsilon =
    List.iter
      (fun sparsify ->
        let rng = Random.State.make [| n; 61 |] in
        let t = Slt.build ~sparsify_anchors:sparsify ~rng g ~rt:0 ~epsilon in
        pf "%-9s %5d %9s | %5d %8.3f %8.3f %7.3f@." name n
          (if sparsify then "two-phase" else "all-BP'")
          (List.length t.Slt.break_positions)
          (Stats.lightness g t.Slt.h_edges)
          (Stats.lightness g t.Slt.edges)
          (Stats.tree_root_stretch g t.Slt.tree ~root:0))
      [ true; false ]
  in
  run "er" (er ~seed:11 300) 300 0.25;
  run "cycle" (Gen.cycle ~w:3.0 401) 401 1.0;
  run "cater"
    (Gen.caterpillar (Random.State.make [| 11 |]) ~spine:150 ~legs:150 ())
    300 1.0

(* A2: why phase 1's diameter cap exists (controlled vs plain Boruvka). *)
let a2 () =
  header "A2: Boruvka chain-cutting (fragment diameter cap)"
    "plain Boruvka contracts whole proposal chains: on a unit path one \
     fragment of diameter n-1; the cap keeps it at O(sqrt n)";
  pf "%-6s %5s %10s | %6s %8s@." "model" "n" "cap" "#frags" "maxdiam";
  let run name g n cap capname =
    let target = int_of_float (Float.ceil (sqrtf n)) in
    let frags, _ = Boruvka.base_fragments g ~target ~diam_cap:cap in
    pf "%-6s %5d %10s | %6d %8d@." name n capname frags.Fragments.count
      (Fragments.max_hop_diameter frags)
  in
  List.iter
    (fun (name, g, n) ->
      let sq = (2 * int_of_float (Float.ceil (sqrtf n))) + 2 in
      run name g n sq (string_of_int sq);
      run name g n max_int "none")
    [
      ("path", Gen.path 1024, 1024);
      ("grid", grid ~seed:12 900, 900);
      ("er", er ~seed:12 900, 900);
    ]

(* A3: hub density of the BKKL17-substitute SSSP. *)
let a3 () =
  header "A3: hub-SSSP hub density sweep"
    "more hubs shorten the repair tail but lengthen the overlay broadcasts; \
     exactness holds at every setting (the repair sweep guarantees it)";
  pf "%-6s %5s %8s | %5s %7s %7s@." "model" "n" "factor" "hubs" "native" "exact?";
  let run name g n factor =
    let rng = Random.State.make [| n; 71 |] in
    let bfs, _ = Bfs.tree g ~root:0 in
    let r = Hub_sssp.run ~hub_factor:factor ~rng g ~bfs ~src:0 in
    let exact = Paths.dijkstra g 0 in
    let ok =
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-7 *. (1.0 +. a))
        r.Hub_sssp.dist exact.Paths.dist
    in
    pf "%-6s %5d %8.2f | %5d %7d %7b@." name n factor
      (List.length r.Hub_sssp.hubs)
      (Ledger.native_total r.Hub_sssp.ledger)
      ok
  in
  List.iter
    (fun factor ->
      run "grid" (grid ~seed:13 400) 400 factor;
      run "er" (er ~seed:13 400) 400 factor)
    [ 0.25; 1.0; 4.0 ]

(* A4: the paper's core motivation — previous distributed spanners have
   no lightness bound. *)
let a4 () =
  header "A4: lightness of Baswana-Sen alone vs the Section-5 construction"
    "BS bounds only the number of edges; its lightness grows with the weight \
     scale, while bucketing + MST keeps it at O(k n^{1/k})";
  pf "%-9s %5s %10s | %8s %8s | %8s %8s@." "model" "n" "aspect" "bs-edges"
    "bs-light" "s5-edges" "s5-light";
  let run name g n =
    let rng = Random.State.make [| n; 81 |] in
    let bs = Baswana_sen.build ~rng ~k:2 g in
    let sp = Light_spanner.build ~rng g ~k:2 ~epsilon:0.25 in
    pf "%-9s %5d %10.1e | %8d %8.2f | %8d %8.2f@." name n
      (Graph.weight_aspect_ratio g)
      (List.length bs.Baswana_sen.edges)
      (Stats.lightness g bs.Baswana_sen.edges)
      (List.length sp.Light_spanner.edges)
      (Stats.lightness g sp.Light_spanner.edges)
  in
  run "er" (er ~seed:14 300) 300;
  run "heavy" (heavy ~seed:14 300) 300;
  run "clustered"
    (Gen.clustered (Random.State.make [| 14 |]) ~clusters:12 ~size:25 ~p_in:0.3
       ~p_out:0.01 ())
    300

(* ------------------------------------------------------------------ *)

let all =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("A1", a1); ("A2", a2); ("A3", a3); ("A4", a4);
  ]

(* Every name is checked before any experiment runs, so a mistyped
   list fails at once instead of after the experiments it does name. *)
let () =
  let names = List.tl (Array.to_list Sys.argv) in
  let unknown = List.filter (fun name -> not (List.mem_assoc name all)) names in
  if unknown <> [] then begin
    List.iter (Printf.eprintf "unknown experiment %s (E1..E8, A1..A4)\n") unknown;
    exit 2
  end;
  if names = [] then List.iter (fun (_, f) -> f ()) all
  else List.iter (fun name -> List.assoc name all ()) names
