module Graph = Ln_graph.Graph
module Engine = Ln_congest.Engine

let orient g ~tree_edges ~is_root =
  let open Engine in
  let program : (int, int) Engine.list_program =
    {
      name = "forest-orient";
      words = (fun _ -> 1);
      init =
        (fun ctx ->
          if is_root ctx.me then
            (-1, List.map (fun e -> { via = e; msg = ctx.me }) tree_edges.(ctx.me))
          else ((-2), []));
      step =
        (fun ctx ~round:_ s inbox ->
          if s <> -2 then (s, [], false)
          else begin
            match
              List.sort
                (fun (a : int received) b -> Int.compare a.from b.from)
                inbox
            with
            | [] -> (s, [], false)
            | first :: _ ->
              let outs =
                tree_edges.(ctx.me)
                |> List.filter (fun e -> e <> first.edge)
                |> List.map (fun e -> { via = e; msg = ctx.me })
              in
              (first.edge, outs, false)
          end);
    }
  in
  Engine.run g (Engine.of_lists program)

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
  let finish ctx s =
    let value = compute ctx.me s.collected in
    let outs =
      if parent_edge.(ctx.me) >= 0 then
        [ { via = parent_edge.(ctx.me); msg = value } ]
      else []
    in
    ({ s with value = Some value }, outs, false)
  in
  let program : ('a up_state, 'a) Engine.list_program =
    {
      name = "forest-up";
      words;
      init = (fun ctx -> ({ waiting = child_count.(ctx.me); collected = []; value = None }, []));
      step =
        (fun ctx ~round:_ s inbox ->
          if s.value <> None then (s, [], false)
          else begin
            let s =
              List.fold_left
                (fun s (r : 'a received) ->
                  { s with waiting = s.waiting - 1; collected = (r.from, r.payload) :: s.collected })
                s inbox
            in
            if s.waiting = 0 then finish ctx s else (s, [], false)
          end);
    }
  in
  let states, stats = Engine.run g (Engine.of_lists program) in
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
  let sends_of ctx v =
    tree_edges.(ctx.Engine.me)
    |> List.filter (fun e -> e <> parent_edge.(ctx.Engine.me))
    |> List.map (fun e ->
           let child = Graph.other_end g e ctx.Engine.me in
           { via = e; msg = emit ctx.Engine.me v child })
  in
  let program : ('a option, 'a) Engine.list_program =
    {
      name = "forest-down";
      words;
      init =
        (fun ctx ->
          if parent_edge.(ctx.me) < 0 then begin
            match seed ctx.me with
            | Some v -> (Some v, sends_of ctx v)
            | None -> (None, [])
          end
          else (None, []));
      step =
        (fun ctx ~round:_ s inbox ->
          match s, inbox with
          | Some _, _ | None, [] -> (s, [], false)
          | None, { payload; _ } :: _ -> (Some payload, sends_of ctx payload, false));
    }
  in
  Engine.run g (Engine.of_lists program)
