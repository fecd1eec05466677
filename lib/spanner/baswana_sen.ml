module Graph = Ln_graph.Graph
module Engine = Ln_congest.Engine
module Forest = Ln_prim.Forest

type t = { edges : int list }

(* One round: every vertex sends (cluster, sampled) over its live
   incident edges; collects the same from neighbours. *)
let exchange_cluster_info g ~edge_ok cluster sampled_of =
  let open Engine in
  let program : ((int * int * bool) list, int * bool) Engine.program =
    {
      name = "bs-exchange";
      words = (fun _ -> 2);
      init =
        (fun ctx ->
          let c = cluster.(ctx.me) in
          let payload = (c, c >= 0 && sampled_of c) in
          for p = ctx.off.(ctx.me) to ctx.off.(ctx.me + 1) - 1 do
            let e = ctx.adj_eid.(p) in
            if edge_ok e then ctx_send ctx ~via:e payload
          done;
          []);
      step =
        (fun ctx ~round:_ s ->
          let s = ref s in
          while ctx_inbox_next ctx do
            let c, b = ctx_inbox_payload ctx in
            s := (ctx_inbox_edge ctx, c, b) :: !s
          done;
          !s);
    }
  in
  fst (Engine.run g program)

let build ?(edge_ok = fun _ -> true) ~rng ~k g =
  if k < 1 then invalid_arg "Baswana_sen.build: k must be >= 1";
  let n = Graph.n g in
  let p_sample = Float.exp (-.Float.log (float_of_int (max n 2)) /. float_of_int k) in
  (* cluster.(v): center vertex id, -1 once v drops out. *)
  let cluster = Array.init n Fun.id in
  let cl_parent = Array.make n (-1) in
  let cl_tree = Array.make n [] in
  let dead = Array.make (Graph.m g) false in
  (* Both endpoints must treat an edge as usable; death is global
     (edge removed from E'), which matches BS's edge bookkeeping. *)
  let live e = edge_ok e && not dead.(e) in
  let spanner = Hashtbl.create 64 in
  let keep e = Hashtbl.replace spanner e () in
  let sampled = Array.make n false in
  for _phase = 1 to k - 1 do
    (* Centers flip coins; members learn via a native down-flood. *)
    for c = 0 to n - 1 do
      sampled.(c) <- Random.State.float rng 1.0 < p_sample
    done;
    let bit_of =
      fst
        (Forest.down g ~parent_edge:cl_parent ~tree_edges:cl_tree
           ~seed:(fun v -> if cluster.(v) = v then Some sampled.(v) else None)
           ~emit:(fun _ b _ -> b)
           ~words:(fun _ -> 1))
    in
    let my_sampled v =
      cluster.(v) >= 0
      && (match bit_of.(v) with Some b -> b | None -> cluster.(v) = v && sampled.(v))
    in
    (* Everyone learns neighbours' (cluster, sampled). *)
    let tables = exchange_cluster_info g ~edge_ok:live cluster (fun c -> sampled.(c)) in
    let new_cluster = Array.copy cluster in
    let new_parent = Array.copy cl_parent in
    (* Decisions are simultaneous: liveness is judged as of the phase
       start, deaths are applied for the next phase. *)
    let was_dead = Array.copy dead in
    let live0 e = edge_ok e && not was_dead.(e) in
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && not (my_sampled v) then begin
        (* Candidate edges grouped per neighbouring cluster. *)
        let per_cluster = Hashtbl.create 8 in
        List.iter
          (fun (e, c, b) ->
            if live0 e && c >= 0 && c <> cluster.(v) then begin
              let w = Graph.weight g e in
              match Hashtbl.find_opt per_cluster c with
              | Some (w0, e0, _) when (w0, e0) <= (w, e) -> ()
              | _ -> Hashtbl.replace per_cluster c (w, e, b)
            end)
          tables.(v);
        (* Lightest edge into a sampled cluster, if any. *)
        let best_sampled = ref None in
        Hashtbl.iter
          (fun c (w, e, b) ->
            if b then begin
              match !best_sampled with
              | Some (w0, e0, _) when (w0, e0) <= (w, e) -> ()
              | _ -> best_sampled := Some (w, e, c)
            end)
          per_cluster;
        (match !best_sampled with
        | None ->
          (* Drop out: service every adjacent cluster, then die. *)
          Hashtbl.iter (fun _ (_, e, _) -> keep e) per_cluster;
          new_cluster.(v) <- -1;
          new_parent.(v) <- -1;
          List.iter (fun (e, _, _) -> dead.(e) <- true) tables.(v)
        | Some (we, ee, c_star) ->
          keep ee;
          new_cluster.(v) <- c_star;
          new_parent.(v) <- ee;
          (* Service strictly lighter adjacent clusters and kill those
             edges. *)
          Hashtbl.iter
            (fun c (w, e, _) ->
              if c <> c_star && (w, e) < (we, ee) then keep e)
            per_cluster;
          List.iter
            (fun (e, c, _) ->
              if
                c >= 0 && c <> c_star
                &&
                match Hashtbl.find_opt per_cluster c with
                | Some (w0, e0, _) -> (w0, e0) < (we, ee)
                | None -> false
              then dead.(e) <- true)
            tables.(v));
        (* Intra-cluster edges die in every case. *)
        List.iter
          (fun (e, c, _) -> if c = cluster.(v) then dead.(e) <- true)
          tables.(v)
      end
    done;
    (* Rebuild cluster trees: vertices of unsampled clusters left them;
       joiners hang below the edge they joined through. *)
    Array.fill cl_tree 0 n [];
    Array.blit new_cluster 0 cluster 0 n;
    Array.blit new_parent 0 cl_parent 0 n;
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && cl_parent.(v) >= 0 then begin
        let e = cl_parent.(v) in
        let u = Graph.other_end g e v in
        cl_tree.(v) <- e :: cl_tree.(v);
        cl_tree.(u) <- e :: cl_tree.(u)
      end
    done
  done;
  (* Final phase: lightest edge to every adjacent cluster. *)
  let tables = exchange_cluster_info g ~edge_ok:live cluster (fun _ -> false) in
  for v = 0 to n - 1 do
    if cluster.(v) >= 0 then begin
      let per_cluster = Hashtbl.create 8 in
      List.iter
        (fun (e, c, _) ->
          if live e && c >= 0 && c <> cluster.(v) then begin
            let w = Graph.weight g e in
            match Hashtbl.find_opt per_cluster c with
            | Some (w0, e0) when (w0, e0) <= (w, e) -> ()
            | _ -> Hashtbl.replace per_cluster c (w, e)
          end)
        tables.(v);
      Hashtbl.iter (fun _ (_, e) -> keep e) per_cluster
    end
  done;
  let edges = List.sort Int.compare (Hashtbl.fold (fun e () acc -> e :: acc) spanner []) in
  { edges }
