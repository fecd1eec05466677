module Graph = Ln_graph.Graph
module Tour_table = Ln_traversal.Tour_table
module Engine = Ln_congest.Engine

(* ------------------------------------------------------------------ *)
(* Shared position helpers                                             *)

let check_centers (tt : Tour_table.t) ~is_center =
  if tt.Tour_table.len > 0 && not (is_center 0) then
    invalid_arg "Intervals: position 0 must be a center"

(* Directed routing along L: position j -> j-1 uses the reverse of the
   L-step (j-1 -> j); position j -> j+1 uses the L-step (j -> j+1).
   Each is a distinct directed edge use, so parallel intervals never
   collide (the engine checks). *)
let edge_left (tt : Tour_table.t) j = tt.Tour_table.next_edge.(j - 1)
let edge_right (tt : Tour_table.t) j = tt.Tour_table.next_edge.(j)

(* ------------------------------------------------------------------ *)
(* aggregate                                                           *)

(* The right-to-left sweep and the left-to-right sweep are run as two
   separate engine executions: within a single sweep every position
   uses a distinct directed edge, but the reverse direction of one
   interval's up-sweep coincides with another interval's down-sweep
   direction, so overlapping them in time can collide (the engine's
   congestion checker catches exactly this). *)

let aggregate ?(value_words = 2) g ~tt ~is_center ~value ~combine =
  let open Engine in
  check_centers tt ~is_center;
  let len = tt.Tour_table.len in
  let is_last j = j = len - 1 || is_center (j + 1) in
  let combine_opt a b =
    match a, b with
    | None, x | x, None -> x
    | Some a, Some b -> Some (combine a b)
  in
  let word_cap = max 4 (2 + value_words) in
  (* Sweep 1: right-to-left accumulation into the centers. *)
  let center_acc = Array.make len None in
  let sweep1 : (unit, int * 'a option) Engine.program =
    let resolve ctx j x =
      let acc = combine_opt (value j) x in
      if is_center j then center_acc.(j) <- acc
      else ctx_send ctx ~via:(edge_left tt j) (j - 1, acc)
    in
    {
      name = "interval-aggregate-up";
      words = (fun _ -> 2 + value_words);
      init =
        (fun ctx ->
          List.iter
            (fun j -> if is_last j then resolve ctx j None)
            tt.Tour_table.positions_of.(ctx.me));
      step =
        (fun ctx ~round:_ () ->
          while ctx_inbox_next ctx do
            let j, x = ctx_inbox_payload ctx in
            resolve ctx j x
          done);
    }
  in
  let st1 = snd (Engine.run ~word_cap g sweep1) in
  (* Sweep 2: centers distribute the interval value rightward. *)
  let result = Array.make len None in
  for j = 0 to len - 1 do
    if is_center j then result.(j) <- center_acc.(j)
  done;
  let sweep2 : (unit, int * 'a) Engine.program =
    let forward ctx j f =
      if j + 1 < len && not (is_center (j + 1)) then
        ctx_send ctx ~via:(edge_right tt j) (j + 1, f)
    in
    {
      name = "interval-aggregate-down";
      words = (fun _ -> 2 + value_words);
      init =
        (fun ctx ->
          List.iter
            (fun j ->
              if is_center j then
                match center_acc.(j) with Some f -> forward ctx j f | None -> ())
            tt.Tour_table.positions_of.(ctx.me));
      step =
        (fun ctx ~round:_ () ->
          while ctx_inbox_next ctx do
            let j, f = ctx_inbox_payload ctx in
            result.(j) <- Some f;
            forward ctx j f
          done);
    }
  in
  let _, st2 = Engine.run ~word_cap g sweep2 in
  (result, Engine.add_stats st1 st2)

(* ------------------------------------------------------------------ *)
(* gather                                                              *)

type 'b gat_msg = Item of int * 'b | Done of int

type 'b pos_gat = {
  queue : 'b Queue.t;  (* items still to send left, oldest first *)
  mutable right_done : bool;
  mutable sent_done : bool;
  mutable collected : 'b list;
}

let gather ?(value_words = 2) g ~tt ~is_center ~items =
  let open Engine in
  check_centers tt ~is_center;
  let len = tt.Tour_table.len in
  let is_last j = j = len - 1 || is_center (j + 1) in
  let program : ((int, 'b pos_gat) Hashtbl.t, 'b gat_msg) Engine.program =
    let cell s j =
      match Hashtbl.find_opt s j with
      | Some c -> c
      | None ->
        let c =
          { queue = Queue.create (); right_done = is_last j; sent_done = false; collected = [] }
        in
        (* Centers swallow their own items directly. *)
        if is_center j then c.collected <- items j
        else List.iter (fun it -> Queue.push it c.queue) (items j);
        Hashtbl.replace s j c;
        c
    in
    (* One round of output for position j. *)
    let emit ctx s j =
      let c = cell s j in
      if not (is_center j) then begin
        if not (Queue.is_empty c.queue) then
          ctx_send ctx ~via:(edge_left tt j) (Item (j - 1, Queue.pop c.queue))
        else if c.right_done && not c.sent_done then begin
          c.sent_done <- true;
          ctx_send ctx ~via:(edge_left tt j) (Done (j - 1))
        end
      end
    in
    {
      name = "interval-gather";
      words = (fun _ -> 2 + value_words);
      init =
        (fun ctx ->
          let s = Hashtbl.create 4 in
          List.iter (emit ctx s) tt.Tour_table.positions_of.(ctx.me);
          s);
      step =
        (fun ctx ~round:_ s ->
          while ctx_inbox_next ctx do
            match ctx_inbox_payload ctx with
            | Item (j, it) ->
              let c = cell s j in
              if is_center j then c.collected <- it :: c.collected
              else Queue.push it c.queue
            | Done j -> (cell s j).right_done <- true
          done;
          let positions = tt.Tour_table.positions_of.(ctx.me) in
          List.iter (emit ctx s) positions;
          if List.exists (fun j -> (not (is_center j)) && not (cell s j).sent_done) positions
          then ctx_stay_active ctx;
          s);
    }
  in
  let word_cap = max 4 (2 + value_words) in
  let states, stats = Engine.run ~word_cap g program in
  let result = Array.make len [] in
  Array.iter
    (fun s -> Hashtbl.iter (fun j (c : 'b pos_gat) -> if is_center j then result.(j) <- c.collected) s)
    states;
  (result, stats)
