module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine

type 'v state = {
  best : (int, 'v) Hashtbl.t;
  queued : (int, unit) Hashtbl.t;
  queue : int Queue.t;
}

let upcast_program ~value_words shape ~local ~better :
    ('v state, int * 'v) Engine.program =
  let open Engine in
  let improve s key v =
    match Hashtbl.find_opt s.best key with
    | Some cur when not (better v cur) -> false
    | _ ->
      Hashtbl.replace s.best key v;
      true
  in
  let enqueue s key =
    if not (Hashtbl.mem s.queued key) then begin
      Hashtbl.replace s.queued key ();
      Queue.push key s.queue
    end
  in
  {
    name = "keyed-upcast";
    words = (fun _ -> 1 + value_words);
    init =
      (fun ctx ->
        let s =
          { best = Hashtbl.create 8; queued = Hashtbl.create 8; queue = Queue.create () }
        in
        List.iter
          (fun (key, v) -> if improve s key v then enqueue s key)
          (local ctx.me);
        s);
    step =
      (fun ctx ~round:_ s ->
        while ctx_inbox_next ctx do
          let key, v = ctx_inbox_payload ctx in
          if improve s key v then enqueue s key
        done;
        (* The root only accumulates; any other vertex sends its oldest
           queued key up, one per round. *)
        let parent_edge = shape.(ctx.me) in
        if parent_edge >= 0 && not (Queue.is_empty s.queue) then begin
          let key = Queue.pop s.queue in
          Hashtbl.remove s.queued key;
          let v = match Hashtbl.find_opt s.best key with Some v -> v | None -> assert false in
          ctx_send ctx ~via:parent_edge (key, v);
          if not (Queue.is_empty s.queue) then ctx_stay_active ctx
        end;
        s);
  }

let global_best ?(value_words = 2) g ~tree ~nkeys ~local ~better =
  let shape =
    Array.init (Graph.n g) (fun v ->
        match Tree.parent tree v with Some (_, e) -> e | None -> -1)
  in
  let word_cap = max 4 (1 + value_words) in
  let states, up_stats =
    Engine.run ~word_cap g (upcast_program ~value_words shape ~local ~better)
  in
  let root_best = states.(Tree.root tree).best in
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) root_best [] in
  let per_node, down_stats =
    Broadcast.downcast ~word_cap ~words:(fun _ -> 1 + value_words) g ~tree ~items
  in
  (* All vertices got the same table; materialize it once. *)
  let table = Array.make nkeys None in
  List.iter (fun (k, v) -> table.(k) <- Some v) per_node.(Tree.root tree);
  let stats =
    Engine.
      {
        rounds = up_stats.rounds + down_stats.rounds;
        messages = up_stats.messages + down_stats.messages;
        total_words = up_stats.total_words + down_stats.total_words;
        max_edge_load = max up_stats.max_edge_load down_stats.max_edge_load;
        outcome =
          (if up_stats.outcome = Round_limit || down_stats.outcome = Round_limit
           then Round_limit
           else Converged);
        dropped_messages =
          up_stats.dropped_messages + down_stats.dropped_messages;
        retransmissions = up_stats.retransmissions + down_stats.retransmissions;
      }
  in
  (table, stats)
