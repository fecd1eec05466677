module Graph = Ln_graph.Graph
module Engine = Ln_congest.Engine

let orient g ~tree_edges ~is_root =
  let open Engine in
  let send_all ctx ~except =
    List.iter (fun e -> if e <> except then ctx_send ctx ~via:e ctx.me) tree_edges.(ctx.me)
  in
  let program : (int, int) Engine.program =
    {
      name = "forest-orient";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          if is_root ctx.me then begin
            send_all ctx ~except:(-1);
            -1
          end
          else -2);
      step =
        (fun ctx ~round:_ s ->
          if s <> -2 then s
          else begin
            (* The parent is the smallest-id sender (the newest of
               equals). *)
            let from = ref max_int and edge = ref (-1) in
            while ctx_inbox_next ctx do
              let f = ctx_inbox_from ctx in
              if f < !from then begin
                from := f;
                edge := ctx_inbox_edge ctx
              end
            done;
            if !edge < 0 then s
            else begin
              send_all ctx ~except:!edge;
              !edge
            end
          end);
    }
  in
  Engine.run g program

type 'a up_state = {
  waiting : int;
  collected : (int * 'a) list;
  value : 'a option;
}

let up ?(words = fun _ -> 2) g ~parent_edge ~tree_edges ~compute =
  let open Engine in
  let n = Graph.n g in
  (* A vertex's forest children are its incident forest edges minus the
     parent edge. *)
  let child_count =
    Array.init n (fun v ->
        List.length (List.filter (fun e -> e <> parent_edge.(v)) tree_edges.(v)))
  in
  let program : ('a up_state, 'a) Engine.program =
    {
      name = "forest-up";
      words;
      init = (fun ctx -> { waiting = child_count.(ctx.me); collected = []; value = None });
      step =
        (fun ctx ~round:_ s ->
          if s.value <> None then s
          else begin
            let waiting = ref s.waiting and collected = ref s.collected in
            while ctx_inbox_next ctx do
              decr waiting;
              collected := (ctx_inbox_from ctx, ctx_inbox_payload ctx) :: !collected
            done;
            let s = { s with waiting = !waiting; collected = !collected } in
            if s.waiting <> 0 then s
            else begin
              let value = compute ctx.me s.collected in
              if parent_edge.(ctx.me) >= 0 then ctx_send ctx ~via:parent_edge.(ctx.me) value;
              { s with value = Some value }
            end
          end);
    }
  in
  let states, stats = Engine.run g program in
  let values =
    Array.map
      (function
        | { value = Some v; _ } -> v
        | { value = None; _ } -> failwith "Forest.up: vertex never completed (bad forest?)")
      states
  in
  let children_values = Array.map (fun s -> s.collected) states in
  (values, children_values, stats)

let down ?(words = fun _ -> 3) g ~parent_edge ~tree_edges ~seed ~emit =
  let open Engine in
  let send_all ctx v =
    let me = ctx.me in
    List.iter
      (fun e ->
        if e <> parent_edge.(me) then
          ctx_send ctx ~via:e (emit me v (Graph.other_end g e me)))
      tree_edges.(me)
  in
  let program : ('a option, 'a) Engine.program =
    {
      name = "forest-down";
      words;
      init =
        (fun ctx ->
          if parent_edge.(ctx.me) < 0 then begin
            match seed ctx.me with
            | Some v ->
              send_all ctx v;
              Some v
            | None -> None
          end
          else None);
      step =
        (fun ctx ~round:_ s ->
          match s with
          | Some _ -> s
          | None ->
            if ctx_inbox_next ctx then begin
              let v = ctx_inbox_payload ctx in
              send_all ctx v;
              Some v
            end
            else s);
    }
  in
  Engine.run g program
