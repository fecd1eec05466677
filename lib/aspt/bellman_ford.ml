module Graph = Ln_graph.Graph
module Engine = Ln_congest.Engine

type result = { dist : float array; parent_edge : int array }

type ss_state = { d : float; parent : int; pending : bool }

(* Send [msg] over every incident edge [edge_ok] allows, in ascending
   edge-id order. *)
let send_allowed ctx ~edge_ok msg =
  let open Engine in
  for p = ctx.off.(ctx.me) to ctx.off.(ctx.me + 1) - 1 do
    let e = ctx.adj_eid.(p) in
    if edge_ok e then ctx_send ctx ~via:e msg
  done

let sssp ?(edge_ok = fun _ -> true) ?init g ~src =
  let open Engine in
  let init_of v =
    match init with
    | Some a -> a.(v)
    | None -> if v = src then 0.0 else infinity
  in
  let program : (ss_state, float) Engine.program =
    {
      name = "bellman-ford-sssp";
      words = (fun _ -> 2);
      init =
        (fun ctx ->
          let d = init_of ctx.me in
          { d; parent = -1; pending = d < infinity });
      step =
        (fun ctx ~round:_ s ->
          let d = ref s.d and parent = ref s.parent and pending = ref s.pending in
          while ctx_inbox_next ctx do
            let e = ctx_inbox_edge ctx in
            if edge_ok e then begin
              let cand = ctx_inbox_payload ctx +. ctx.weight e in
              if cand < !d then begin
                d := cand;
                parent := e;
                pending := true
              end
            end
          done;
          if !pending then begin
            let s = { d = !d; parent = !parent; pending = false } in
            send_allowed ctx ~edge_ok s.d;
            s
          end
          else s);
    }
  in
  let states, stats = Engine.run g program in
  ( {
      dist = Array.map (fun s -> s.d) states;
      parent_edge = Array.map (fun s -> s.parent) states;
    },
    stats )

type tables = (int, float * int) Hashtbl.t array

type ms_state = {
  table : (int, float * int) Hashtbl.t;
  queued : (int, unit) Hashtbl.t;
  queue : int Queue.t;
}

let multi_source ?(edge_ok = fun _ -> true) ?(bound = infinity) g ~srcs =
  let open Engine in
  let is_src = Hashtbl.create (List.length srcs) in
  List.iter (fun s -> Hashtbl.replace is_src s ()) srcs;
  let enqueue s src =
    if not (Hashtbl.mem s.queued src) then begin
      Hashtbl.replace s.queued src ();
      Queue.push src s.queue
    end
  in
  (* Forward the oldest queued source's entry, then stay active while
     more are queued. *)
  let emit ctx s =
    if not (Queue.is_empty s.queue) then begin
      let src = Queue.pop s.queue in
      Hashtbl.remove s.queued src;
      (match Hashtbl.find_opt s.table src with
      | None -> ()
      | Some (d, _) -> send_allowed ctx ~edge_ok (src, d));
      if not (Queue.is_empty s.queue) then ctx_stay_active ctx
    end;
    s
  in
  let program : (ms_state, int * float) Engine.program =
    {
      name = "bellman-ford-multi";
      words = (fun _ -> 3);
      init =
        (fun ctx ->
          let s =
            { table = Hashtbl.create 8; queued = Hashtbl.create 8; queue = Queue.create () }
          in
          if Hashtbl.mem is_src ctx.me then begin
            Hashtbl.replace s.table ctx.me (0.0, -1);
            enqueue s ctx.me
          end;
          s);
      step =
        (fun ctx ~round:_ s ->
          while ctx_inbox_next ctx do
            let e = ctx_inbox_edge ctx in
            if edge_ok e then begin
              let src, d0 = ctx_inbox_payload ctx in
              let cand = d0 +. ctx.weight e in
              if cand <= bound then begin
                match Hashtbl.find_opt s.table src with
                | Some (d, _) when d <= cand -> ()
                | _ ->
                  Hashtbl.replace s.table src (cand, e);
                  enqueue s src
              end
            end
          done;
          emit ctx s);
    }
  in
  let states, stats = Engine.run g program in
  (Array.map (fun s -> s.table) states, stats)

let path_to_source g tables v ~src =
  let rec walk v acc =
    if v = src then Some (List.rev (v :: acc))
    else begin
      match Hashtbl.find_opt tables.(v) src with
      | None | Some (_, -1) -> None
      | Some (_, e) -> walk (Graph.other_end g e v) (v :: acc)
    end
  in
  walk v []
