module Graph = Ln_graph.Graph
module Metric = Ln_graph.Metric
module Ledger = Ln_congest.Ledger
module Engine = Ln_congest.Engine
module Telemetry = Ln_congest.Telemetry
module Bellman_ford = Ln_aspt.Bellman_ford

type t = {
  points : int list;
  radius : float;
  delta : float;
  covering_bound : float;
  separation_bound : float;
  iterations : int;
  ledger : Ledger.t;
}

(* Fisher-Yates shuffle of the active set: the iteration's uniform
   permutation π. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* FL16 charge for one LE-list computation: (√n + D) times a
   polylogarithmic factor (the 2^{Õ(√log n)} term is ≈ log n at any
   simulable scale; see DESIGN.md). *)
let le_list_charge g ~bfs =
  let n = float_of_int (max 2 (Graph.n g)) in
  let d = Ln_graph.Tree.height_hops bfs in
  int_of_float (Float.ceil ((Float.sqrt n +. float_of_int d) *. Float.log n))

let build ~rng g ~bfs ~radius ~delta =
  if radius <= 0.0 then invalid_arg "Net.build: radius must be positive";
  if delta < 0.0 then invalid_arg "Net.build: delta must be nonnegative";
  Telemetry.span "net" @@ fun () ->
  let n = Graph.n g in
  let ledger = Ledger.create () in
  let active = Array.make n true in
  let points = ref [] in
  let iterations = ref 0 in
  let any_active () = Array.exists Fun.id active in
  while any_active () do
    incr iterations;
    let active_list =
      List.filter (fun v -> active.(v)) (List.init n Fun.id)
    in
    let order = shuffle rng active_list in
    let rank = Hashtbl.create (List.length order) in
    List.iteri (fun i v -> Hashtbl.replace rank v i) order;
    let lists = Le_list.compute g ~order in
    Ledger.charged ledger ~label:"net/fl16-le-lists" (le_list_charge g ~bfs);
    (* v joins iff it is π-first in its Δ-ball: no list entry u ≠ v
       with d ≤ Δ and π(u) < π(v). *)
    let joiners =
      List.filter
        (fun v ->
          List.for_all
            (fun (u, d) ->
              u = v || d > radius || Hashtbl.find rank u > Hashtbl.find rank v)
            lists.(v))
        active_list
    in
    (match joiners with
    | [] -> () (* extremely unlikely; resample next iteration *)
    | _ ->
      points := joiners @ !points;
      (* Deactivation: native bounded multi-source shortest paths from
         the new net points (the approximate-SPT step). *)
      let bound = (1.0 +. delta) *. radius in
      let tables =
        Telemetry.span ~ledger "net/deactivation-aspt" (fun () ->
            fst (Bellman_ford.multi_source ~bound g ~srcs:joiners))
      in
      for v = 0 to n - 1 do
        if active.(v) && Bellman_ford.length tables.(v) > 0 then active.(v) <- false
      done)
  done;
  {
    points = List.sort Int.compare !points;
    radius;
    delta;
    covering_bound = (1.0 +. delta) *. radius;
    separation_bound = radius;
    iterations = !iterations;
    ledger;
  }

let is_net g ~covering ~separation pts =
  Metric.covering_radius g pts <= covering +. 1e-9
  && Metric.separation g pts > separation -. 1e-9
