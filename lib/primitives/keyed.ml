module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine

type 'v state = {
  best : (int, 'v) Hashtbl.t;
  queued : (int, unit) Hashtbl.t;
  queue : int Queue.t;
}

let upcast_program ~value_words parent_edge ~local ~better :
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
        let pe = parent_edge.(ctx.me) in
        if pe >= 0 && not (Queue.is_empty s.queue) then begin
          let key = Queue.pop s.queue in
          Hashtbl.remove s.queued key;
          let v = match Hashtbl.find_opt s.best key with Some v -> v | None -> assert false in
          ctx_send ctx ~via:pe (key, v);
          if not (Queue.is_empty s.queue) then ctx_stay_active ctx
        end;
        s);
  }

let global_best ?(value_words = 2) g ~tree ~nkeys ~local ~better =
  let parent_edge = (Tree.view tree).Tree.parent_edge in
  let word_cap = max 4 (1 + value_words) in
  (* [fst] and [snd] read each run's pair at once. A pattern whose
     stats are used only in the final sum would keep the pair, and with
     it every node's upcast state or delivered list, reachable until
     the end. *)
  let up = Engine.run ~word_cap g (upcast_program ~value_words parent_edge ~local ~better) in
  let up_stats = snd up in
  let root_best = (fst up).(Tree.root tree).best in
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) root_best [] in
  let down =
    Broadcast.downcast ~word_cap ~words:(fun _ -> 1 + value_words) g ~tree ~items
  in
  let down_stats = snd down in
  (* All vertices got the same table; materialize it once. *)
  let table = Array.make nkeys None in
  List.iter (fun (k, v) -> table.(k) <- Some v) (fst down).(Tree.root tree);
  (table, Engine.add_stats up_stats down_stats)
