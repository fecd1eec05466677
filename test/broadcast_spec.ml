(* The queue-based tree broadcast that Broadcast's flat program
   replaced, kept as the specification it is tested against: every
   relayed item is a boxed [Up]/[Down] message in a per-vertex [Queue],
   and every vertex builds its own result list. test_primitives checks
   that Broadcast.all_to_all, gather and downcast return the same
   per-vertex lists and engine stats as this program, with and without
   faults, on both engine backends. *)

module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine

type 'a msg = Up of 'a | Up_done | Down of 'a | Down_done

type 'a state = {
  pending_up : 'a msg Queue.t; (* [Up] messages still to push to the parent *)
  mutable up_children_pending : int; (* children that have not sent Up_done *)
  mutable up_sent_done : bool;
  mutable collected : 'a list; (* root: everything upcast; others: Down items *)
  pending_down : 'a msg Queue.t; (* [Down] messages still to push to the children *)
  mutable down_started : bool;
  mutable down_done_received : bool;
  mutable down_sent_done : bool;
}

(* Per-node tree structure (legitimately local knowledge after BFS). *)
type shape = { parent_edge : int; child_edges : int list }

let shapes g tree =
  let column = (Tree.view tree).Tree.parent_edge in
  Array.init (Graph.n g) (fun v ->
      {
        parent_edge = column.(v);
        child_edges = List.map (fun c -> column.(c)) (Tree.children tree v);
      })

let msg_words words = function
  | Up x | Down x -> words x
  | Up_done | Down_done -> 1

(* One send of at most one item up + one item down (to each child) per
   round, with done-markers once queues drain. [do_down] disables the
   downcast phase for [gather]. A node's state is mutated in place, and
   a relayed item travels as the message block it arrived in. *)
let program ~name ~words ~do_down shape (items : 'a list array) :
    ('a state, 'a msg) Engine.program =
  let open Engine in
  let is_root v = shape.(v).parent_edge = -1 in
  let rec send_down ctx msg = function
    | [] -> ()
    | e :: rest ->
      ctx_send ctx ~via:e msg;
      send_down ctx msg rest
  in
  let sends ctx s =
    let sh = shape.(ctx.me) in
    let root = is_root ctx.me in
    if not root then begin
      if not (Queue.is_empty s.pending_up) then
        ctx_send ctx ~via:sh.parent_edge (Queue.pop s.pending_up)
      else if (not s.up_sent_done) && s.up_children_pending = 0 then begin
        ctx_send ctx ~via:sh.parent_edge Up_done;
        s.up_sent_done <- true
      end
    end;
    (* Root starts the down phase once its subtree (i.e. everyone) is
       done upcasting. *)
    if do_down && root && (not s.down_started) && s.up_children_pending = 0 then begin
      s.down_started <- true;
      List.iter (fun x -> Queue.push (Down x) s.pending_down) (List.rev s.collected)
    end;
    if do_down then begin
      if not (Queue.is_empty s.pending_down) then
        send_down ctx (Queue.pop s.pending_down) sh.child_edges
      else begin
        let upstream_finished = if root then s.down_started else s.down_done_received in
        if upstream_finished && not s.down_sent_done then begin
          send_down ctx Down_done sh.child_edges;
          s.down_sent_done <- true
        end
      end
    end;
    if
      (not (Queue.is_empty s.pending_up))
      || ((not root) && not s.up_sent_done)
      || (do_down && not s.down_sent_done)
    then ctx_stay_active ctx;
    s
  in
  {
    name;
    words = msg_words words;
    init =
      (fun ctx ->
        let sh = shape.(ctx.me) in
        let root = is_root ctx.me in
        let pending_up = Queue.create () in
        if not root then List.iter (fun x -> Queue.push (Up x) pending_up) items.(ctx.me);
        {
          pending_up;
          up_children_pending = List.length sh.child_edges;
          up_sent_done = false;
          collected = (if root then List.rev items.(ctx.me) else []);
          pending_down = Queue.create ();
          down_started = false;
          down_done_received = false;
          down_sent_done = false;
        });
    step =
      (fun ctx ~round:_ s ->
        let root = is_root ctx.me in
        while ctx_inbox_next ctx do
          match ctx_inbox_payload ctx with
          | Up x as m ->
            if root then s.collected <- x :: s.collected else Queue.push m s.pending_up
          | Up_done -> s.up_children_pending <- s.up_children_pending - 1
          | Down x as m ->
            s.collected <- x :: s.collected;
            Queue.push m s.pending_down
          | Down_done -> s.down_done_received <- true
        done;
        sends ctx s);
  }

let run_broadcast ~name ~do_down ?word_cap ?(words = fun _ -> 2) g ~tree ~items =
  let shape = shapes g tree in
  let states, stats = Engine.run ?word_cap g (program ~name ~words ~do_down shape items) in
  let root = Tree.root tree in
  let result =
    Array.mapi
      (fun v (s : _ state) ->
        if v = root then List.rev s.collected
        else if do_down then
          (* Non-root: collected are the Down items = everything. *)
          List.rev s.collected
        else [])
      states
  in
  (result, stats)

let all_to_all ?word_cap ?words g ~tree ~items =
  run_broadcast ~name:"broadcast-all-to-all" ~do_down:true ?word_cap ?words g ~tree ~items

let gather ?word_cap ?words g ~tree ~items =
  run_broadcast ~name:"broadcast-gather" ~do_down:false ?word_cap ?words g ~tree ~items

let downcast ?word_cap ?words g ~tree ~items =
  let per_node = Array.make (Graph.n g) [] in
  per_node.(Tree.root tree) <- items;
  run_broadcast ~name:"broadcast-downcast" ~do_down:true ?word_cap ?words g ~tree
    ~items:per_node
