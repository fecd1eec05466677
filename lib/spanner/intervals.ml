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
  let sweep1 : ((int, unit) Hashtbl.t, int * 'a option) Engine.list_program =
    let resolve s j x =
      Hashtbl.replace s j ();
      let acc = combine_opt (value j) x in
      if is_center j then begin
        center_acc.(j) <- acc;
        []
      end
      else [ { via = edge_left tt j; msg = (j - 1, acc) } ]
    in
    {
      name = "interval-aggregate-up";
      words = (fun _ -> 2 + value_words);
      init =
        (fun ctx ->
          let s = Hashtbl.create 4 in
          let outs =
            List.concat_map
              (fun j -> if is_last j then resolve s j None else [])
              tt.Tour_table.positions_of.(ctx.me)
          in
          (s, outs));
      step =
        (fun _ctx ~round:_ s inbox ->
          let outs =
            List.concat_map
              (fun (r : (int * 'a option) received) ->
                let j, x = r.payload in
                resolve s j x)
              inbox
          in
          (s, outs, false));
    }
  in
  let _, st1 = Engine.run ~word_cap g (Engine.of_lists sweep1) in
  (* Sweep 2: centers distribute the interval value rightward. *)
  let result = Array.make len None in
  for j = 0 to len - 1 do
    if is_center j then result.(j) <- center_acc.(j)
  done;
  let sweep2 : (unit, int * 'a) Engine.list_program =
    let forward j f =
      if j + 1 < len && not (is_center (j + 1)) then
        [ { via = edge_right tt j; msg = (j + 1, f) } ]
      else []
    in
    {
      name = "interval-aggregate-down";
      words = (fun _ -> 2 + value_words);
      init =
        (fun ctx ->
          let outs =
            List.concat_map
              (fun j ->
                if is_center j then begin
                  match center_acc.(j) with Some f -> forward j f | None -> []
                end
                else [])
              tt.Tour_table.positions_of.(ctx.me)
          in
          ((), outs));
      step =
        (fun _ctx ~round:_ s inbox ->
          let outs =
            List.concat_map
              (fun (r : (int * 'a) received) ->
                let j, f = r.payload in
                result.(j) <- Some f;
                forward j f)
              inbox
          in
          (s, outs, false));
    }
  in
  let _, st2 = Engine.run ~word_cap g (Engine.of_lists sweep2) in
  let stats =
    {
      rounds = st1.rounds + st2.rounds;
      messages = st1.messages + st2.messages;
      total_words = st1.total_words + st2.total_words;
      max_edge_load = max st1.max_edge_load st2.max_edge_load;
      outcome =
        (if st1.outcome = Engine.Round_limit || st2.outcome = Engine.Round_limit
         then Engine.Round_limit
         else Engine.Converged);
      dropped_messages = st1.dropped_messages + st2.dropped_messages;
      retransmissions = st1.retransmissions + st2.retransmissions;
    }
  in
  (result, stats)

(* ------------------------------------------------------------------ *)
(* gather                                                              *)

type 'b gat_msg = Item of int * 'b | Done of int

type 'b pos_gat = {
  mutable queue : 'b list;
  mutable right_done : bool;
  mutable sent_done : bool;
  mutable collected : 'b list;
}

let gather ?(value_words = 2) g ~tt ~is_center ~items =
  let open Engine in
  check_centers tt ~is_center;
  let len = tt.Tour_table.len in
  let is_last j = j = len - 1 || is_center (j + 1) in
  let program : ((int, 'b pos_gat) Hashtbl.t, 'b gat_msg) Engine.list_program =
    let cell s j =
      match Hashtbl.find_opt s j with
      | Some c -> c
      | None ->
        let c =
          { queue = items j; right_done = is_last j; sent_done = false; collected = [] }
        in
        (* Centers swallow their own items directly. *)
        if is_center j then begin
          c.collected <- c.queue;
          c.queue <- []
        end;
        Hashtbl.replace s j c;
        c
    in
    (* One round of output for position j. *)
    let emit s j =
      let c = cell s j in
      if is_center j then []
      else begin
        match c.queue with
        | it :: rest ->
          c.queue <- rest;
          [ { via = edge_left tt j; msg = Item (j - 1, it) } ]
        | [] ->
          if c.right_done && not c.sent_done then begin
            c.sent_done <- true;
            [ { via = edge_left tt j; msg = Done (j - 1) } ]
          end
          else []
      end
    in
    let active s positions =
      List.exists
        (fun j ->
          let c = cell s j in
          (not (is_center j)) && not c.sent_done)
        positions
    in
    {
      name = "interval-gather";
      words = (fun _ -> 2 + value_words);
      init =
        (fun ctx ->
          let s = Hashtbl.create 4 in
          let outs = List.concat_map (emit s) tt.Tour_table.positions_of.(ctx.me) in
          (s, outs));
      step =
        (fun ctx ~round:_ s inbox ->
          List.iter
            (fun (r : 'b gat_msg received) ->
              match r.payload with
              | Item (j, it) ->
                let c = cell s j in
                if is_center j then c.collected <- it :: c.collected
                else c.queue <- c.queue @ [ it ]
              | Done j -> (cell s j).right_done <- true)
            inbox;
          let outs = List.concat_map (emit s) tt.Tour_table.positions_of.(ctx.me) in
          (s, outs, active s tt.Tour_table.positions_of.(ctx.me)));
    }
  in
  let word_cap = max 4 (2 + value_words) in
  let states, stats = Engine.run ~word_cap g (Engine.of_lists program) in
  let result = Array.make len [] in
  Array.iter
    (fun s -> Hashtbl.iter (fun j (c : 'b pos_gat) -> if is_center j then result.(j) <- c.collected) s)
    states;
  (result, stats)
