module Graph = Ln_graph.Graph
module Mst_seq = Ln_graph.Mst_seq
module Engine = Ln_congest.Engine
module Ledger = Ln_congest.Ledger
module Telemetry = Ln_congest.Telemetry
module Bfs = Ln_prim.Bfs
module Bellman_ford = Ln_aspt.Bellman_ford
module Net = Ln_nets.Net

type t = {
  edges : int list;
  epsilon : float;
  stretch_bound : float;
  scales : int;
  max_table : int;
  ledger : Ledger.t;
}

(* Native path reporting: every initiating net point launches one
   token per (smaller, discovered) net point; a token for source u at
   vertex x crosses x's parent edge towards u, marking it. Tokens to
   distinct parent edges travel in parallel; tokens sharing an edge
   queue up (one per round — congestion is real and measured). *)
let report_paths g (tables : Bellman_ford.tables) ~pairs ~mark =
  let open Engine in
  (* Per-vertex pending tokens grouped by outgoing parent edge. *)
  let parent_of v src =
    let i = Bellman_ford.find tables.(v) src in
    if i < 0 then -1 else Bellman_ford.parent tables.(v) i
  in
  let push s v src =
    let e = parent_of v src in
    if e >= 0 then begin
      mark e;
      match Hashtbl.find_opt s e with
      | Some q -> Queue.push src q
      | None ->
        let q = Queue.create () in
        Queue.push src q;
        Hashtbl.replace s e q
    end
  in
  let program : ((int, int Queue.t) Hashtbl.t, int) Engine.program =
    {
      name = "doubling-path-report";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          let s = Hashtbl.create 4 in
          List.iter (fun src -> push s ctx.me src) (pairs ctx.me);
          s);
      step =
        (fun ctx ~round:_ s ->
          while ctx_inbox_next ctx do
            let src = ctx_inbox_payload ctx in
            if src <> ctx.me then push s ctx.me src
          done;
          (* The oldest token on each edge goes out, in the reverse of
             the table's iteration order; a drained edge leaves it. *)
          List.iter
            (fun (e, q) ->
              ctx_send ctx ~via:e (Queue.pop q);
              if Queue.is_empty q then Hashtbl.remove s e)
            (Hashtbl.fold (fun e q acc -> (e, q) :: acc) s []);
          if Hashtbl.length s > 0 then ctx_stay_active ctx;
          s);
    }
  in
  Engine.run g program

let build ~rng g ~epsilon =
  if not (epsilon > 0.0 && epsilon <= 0.5) then
    invalid_arg "Doubling_spanner.build: epsilon must be in (0, 0.5]";
  Telemetry.span "doubling-spanner" @@ fun () ->
  let n = Graph.n g in
  let ledger = Ledger.create () in
  let bfs =
    Telemetry.span ~ledger "bfs-tree" (fun () -> fst (Bfs.tree g ~root:0))
  in
  let l_total = Mst_seq.weight g in
  let w_min = Graph.fold_edges g (fun _ e acc -> Float.min acc e.Graph.w) infinity in
  let chosen = Hashtbl.create (4 * n) in
  let mark e = Hashtbl.replace chosen e () in
  let scales = ref 0 in
  let max_table = ref 0 in
  let delta_scale = ref w_min in
  (* One extra scale past L so every pair (d <= L) has a covering
     scale with delta/(1+eps) < d <= delta. *)
  while !delta_scale <= l_total *. (1.0 +. epsilon) && n > 1 do
    incr scales;
    let big_delta = !delta_scale in
    (* (εΔ/2, εΔ/3)-net: Theorem 3 with δ = 1/2. *)
    let radius = epsilon *. big_delta /. 3.0 in
    let net = Net.build ~rng g ~bfs ~radius ~delta:0.5 in
    Ledger.merge ledger ~prefix:"net" net.Net.ledger;
    (* 2Δ-bounded multi-source exploration from the net points. *)
    let tables =
      Telemetry.span ~ledger "bounded-msasp" (fun () ->
          fst
            (Bellman_ford.multi_source ~bound:(2.0 *. big_delta) g
               ~srcs:net.Net.points))
    in
    Array.iter
      (fun tbl -> max_table := max !max_table (Bellman_ford.length tbl))
      tables;
    (* Each net point v initiates a token towards every discovered
       smaller net point, in the order a Hashtbl fold over v's table
       visits them. *)
    let is_net_point = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace is_net_point p ()) net.Net.points;
    let pairs v =
      if Hashtbl.mem is_net_point v then
        Hashtbl.fold
          (fun src _ acc ->
            if src < v && Hashtbl.mem is_net_point src then src :: acc else acc)
          (Bellman_ford.to_hashtbl tables.(v)) []
      else []
    in
    Telemetry.span ~ledger "path-report" (fun () ->
        ignore (report_paths g tables ~pairs ~mark));
    delta_scale := big_delta *. (1.0 +. epsilon)
  done;
  let edges = List.sort Int.compare (Hashtbl.fold (fun e () acc -> e :: acc) chosen []) in
  {
    edges;
    epsilon;
    stretch_bound = 1.0 +. (12.0 *. epsilon);
    scales = !scales;
    max_table = !max_table;
    ledger;
  }
