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
    ('a state, 'a msg) Engine.program =
  let open Engine in
  let is_root v = fst shape.(v) = -1 in
  let send_down ctx child_edges t =
    if flood_down then List.iter (fun e -> ctx_send ctx ~via:e (Total t)) child_edges
  in
  {
    name;
    words = (function Partial x | Total x -> words x);
    init =
      (fun ctx ->
        let parent_edge, child_edges = shape.(ctx.me) in
        let s =
          { acc = value ctx.me; waiting = List.length child_edges; sent_up = false; total = None }
        in
        if s.waiting = 0 && not (is_root ctx.me) then begin
          (* Leaves fire immediately. *)
          ctx_send ctx ~via:parent_edge (Partial s.acc);
          { s with sent_up = true }
        end
        else if s.waiting = 0 && is_root ctx.me then begin
          send_down ctx child_edges s.acc;
          { s with total = Some s.acc }
        end
        else s);
    step =
      (fun ctx ~round:_ s ->
        let parent_edge, child_edges = shape.(ctx.me) in
        let acc = ref s.acc and waiting = ref s.waiting and total = ref s.total in
        let just_learned = ref false in
        while ctx_inbox_next ctx do
          match ctx_inbox_payload ctx with
          | Partial x ->
            acc := combine !acc x;
            decr waiting
          | Total x ->
            total := Some x;
            just_learned := true
        done;
        let s = { s with acc = !acc; waiting = !waiting; total = !total } in
        if s.waiting = 0 && (not s.sent_up) && not (is_root ctx.me) then begin
          ctx_send ctx ~via:parent_edge (Partial s.acc);
          { s with sent_up = true }
        end
        else if s.waiting = 0 && is_root ctx.me && s.total = None then begin
          send_down ctx child_edges s.acc;
          { s with total = Some s.acc }
        end
        else begin
          (* Forward the total once, on the round it arrived. *)
          (match s.total with
          | Some t when !just_learned && not (is_root ctx.me) -> send_down ctx child_edges t
          | _ -> ());
          s
        end);
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
    Engine.run g (program ~name:"convergecast" ~words ~flood_down shape ~value ~combine)
  in
  let root = Tree.root tree in
  match states.(root).total with
  | Some t -> (t, stats)
  | None -> failwith "Convergecast: root never completed (tree not spanning?)"

let aggregate ?words g ~tree ~value ~combine =
  run ~flood_down:false ?words g ~tree ~value ~combine

let aggregate_all ?words g ~tree ~value ~combine =
  run ~flood_down:true ?words g ~tree ~value ~combine
