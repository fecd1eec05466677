module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine

type 'a msg = Partial of 'a | Total of 'a

type 'a state = {
  acc : 'a;
  waiting : int; (* children yet to report *)
  sent_up : bool;
  total : 'a option;
}

let program ~name ~words ~flood_down shape ~value ~combine :
    ('a state, 'a msg) Engine.list_program =
  let open Engine in
  let is_root v = fst shape.(v) = -1 in
  {
    name;
    words = (function Partial x | Total x -> words x);
    init =
      (fun ctx ->
        let parent_edge, child_edges = shape.(ctx.me) in
        let s =
          { acc = value ctx.me; waiting = List.length child_edges; sent_up = false; total = None }
        in
        if s.waiting = 0 && not (is_root ctx.me) then
          (* Leaves fire immediately. *)
          ({ s with sent_up = true }, [ { via = parent_edge; msg = Partial s.acc } ])
        else if s.waiting = 0 && is_root ctx.me then
          let s = { s with total = Some s.acc } in
          ( s,
            if flood_down then
              List.map (fun e -> { via = e; msg = Total s.acc }) child_edges
            else [] )
        else (s, []));
    step =
      (fun ctx ~round:_ s inbox ->
        let parent_edge, child_edges = shape.(ctx.me) in
        let s =
          List.fold_left
            (fun s (r : 'a msg received) ->
              match r.payload with
              | Partial x -> { s with acc = combine s.acc x; waiting = s.waiting - 1 }
              | Total x -> { s with total = Some x })
            s inbox
        in
        if s.waiting = 0 && (not s.sent_up) && not (is_root ctx.me) then
          ({ s with sent_up = true }, [ { via = parent_edge; msg = Partial s.acc } ], false)
        else if s.waiting = 0 && is_root ctx.me && s.total = None then begin
          let s = { s with total = Some s.acc } in
          ( s,
            (if flood_down then List.map (fun e -> { via = e; msg = Total s.acc }) child_edges
             else []),
            false )
        end
        else if flood_down && s.total <> None && not (is_root ctx.me) then begin
          (* Forward the total once. *)
          match s.total with
          | Some t when child_edges <> [] ->
            (* Only forward on the round we learned it: inbox contained
               the Total message. *)
            let just_learned =
              List.exists
                (fun (r : 'a msg received) ->
                  match r.payload with Total _ -> true | Partial _ -> false)
                inbox
            in
            if just_learned then
              (s, List.map (fun e -> { via = e; msg = Total t }) child_edges, false)
            else (s, [], false)
          | _ -> (s, [], false)
        end
        else (s, [], false));
  }

let node_shapes g tree =
  Array.init (Graph.n g) (fun v ->
      let parent_edge = match Tree.parent tree v with Some (_, e) -> e | None -> -1 in
      let child_edges =
        List.filter_map
          (fun c -> match Tree.parent tree c with Some (_, e) -> Some e | None -> None)
          (Tree.children tree v)
      in
      (parent_edge, child_edges))

let run ~flood_down ?(words = fun _ -> 2) g ~tree ~value ~combine =
  let shape = node_shapes g tree in
  let states, stats =
    Engine.run g
      (Engine.of_lists (program ~name:"convergecast" ~words ~flood_down shape ~value ~combine))
  in
  let root = Tree.root tree in
  match states.(root).total with
  | Some t -> (t, stats)
  | None -> failwith "Convergecast: root never completed (tree not spanning?)"

let aggregate ?words g ~tree ~value ~combine =
  run ~flood_down:false ?words g ~tree ~value ~combine

let aggregate_all ?words g ~tree ~value ~combine =
  run ~flood_down:true ?words g ~tree ~value ~combine
