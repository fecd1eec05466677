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
  let ew = (Graph.view g).Graph.ew in
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
              let cand = ctx_inbox_payload ctx +. ew.(e) in
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

(* A vertex's multi-source table. Entries sit in first-insertion order
   in unboxed columns and are never removed, so a position names an
   entry for the whole run: [index] maps a source to its position by
   open addressing (power-of-two slots, -1 empty, at most half full),
   and [ring] holds the queued positions in FIFO order from [head]. A
   position is queued at most once ([queued]), so the ring never needs
   more slots than the columns have. A table that never hears of a
   source keeps the shared empty columns. *)
type table = {
  mutable len : int;
  mutable src : int array;
  mutable dist : float array;
  mutable parent : int array;
  mutable hops : int array;
  mutable queued : Bytes.t;
  mutable index : int array;
  mutable ring : int array;
  mutable head : int;
  mutable count : int;
}

type tables = table array

let empty () =
  {
    len = 0;
    src = [||];
    dist = [||];
    parent = [||];
    hops = [||];
    queued = Bytes.empty;
    index = [||];
    ring = [||];
    head = 0;
    count = 0;
  }

let slot_of s mask = ((s * 0x9E3779B97F4A7C1) lsr 17) land mask

let rec probe index src s k mask =
  let i = index.(k) in
  if i < 0 || src.(i) = s then i else probe index src s ((k + 1) land mask) mask

let find t s =
  let cap = Array.length t.index in
  if cap = 0 then -1 else probe t.index t.src s (slot_of s (cap - 1)) (cap - 1)

let rec free_slot index k mask =
  if index.(k) < 0 then k else free_slot index ((k + 1) land mask) mask

(* Double the columns, rebuild the index at twice their size and lay
   the ring out again from slot 0, oldest first. *)
let grow t =
  let cap = max 4 (2 * Array.length t.src) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.src <- extend t.src 0;
  t.dist <- extend t.dist 0.0;
  t.parent <- extend t.parent (-1);
  t.hops <- extend t.hops 0;
  let queued = Bytes.make cap '\000' in
  Bytes.blit t.queued 0 queued 0 t.len;
  t.queued <- queued;
  let ring = Array.make cap 0 in
  let old = Array.length t.ring in
  for k = 0 to t.count - 1 do
    ring.(k) <- t.ring.((t.head + k) land (old - 1))
  done;
  t.ring <- ring;
  t.head <- 0;
  let mask = (2 * cap) - 1 in
  let index = Array.make (2 * cap) (-1) in
  for i = 0 to t.len - 1 do
    index.(free_slot index (slot_of t.src.(i) mask) mask) <- i
  done;
  t.index <- index

(* Append an entry for [s] (absent from [t]) and return its position;
   the caller fills its distance, parent and hops. *)
let add t s =
  if t.len = Array.length t.src then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.src.(i) <- s;
  let mask = Array.length t.index - 1 in
  t.index.(free_slot t.index (slot_of s mask) mask) <- i;
  i

let enqueue t i =
  if Bytes.get t.queued i = '\000' then begin
    Bytes.set t.queued i '\001';
    t.ring.((t.head + t.count) land (Array.length t.ring - 1)) <- i;
    t.count <- t.count + 1
  end

let dequeue t =
  let i = t.ring.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.count <- t.count - 1;
  Bytes.set t.queued i '\000';
  i

(* Multi-source Bellman–Ford. A message is (source, distance, hops):
   the receiver offers distance + w(e) for the source, keeps it on a
   strict improvement within [bound], and queues the entry; each round
   a vertex forwards its oldest queued entry over every allowed edge,
   provided the entry's hop count is below [hop_cap]. Only a hop-capped
   run reads hop counts, so only it is charged the fourth word; an
   uncapped run sends 0 there. *)
let explore ~edge_ok ~bound ~hop_cap g ~srcs =
  let open Engine in
  let n = Graph.n g in
  let ew = (Graph.view g).Graph.ew in
  let is_src = Bytes.make n '\000' in
  List.iter (fun s -> if s >= 0 && s < n then Bytes.set is_src s '\001') srcs;
  let capped = Option.is_some hop_cap in
  let hop_cap = Option.value hop_cap ~default:max_int in
  let program : (table, int * float * int) Engine.program =
    {
      name = "bellman-ford-multi";
      words = (if capped then fun _ -> 4 else fun _ -> 3);
      init =
        (fun ctx ->
          let t = empty () in
          if Bytes.get is_src ctx.me <> '\000' then begin
            (* Parent -1 and hops 0 are the columns' fill values. *)
            let i = add t ctx.me in
            t.dist.(i) <- 0.0;
            enqueue t i
          end;
          t);
      step =
        (fun ctx ~round:_ t ->
          while ctx_inbox_next ctx do
            let e = ctx_inbox_edge ctx in
            if edge_ok e then begin
              let s, d0, h0 = ctx_inbox_payload ctx in
              let cand = d0 +. ew.(e) in
              if cand <= bound then begin
                let i = find t s in
                if i < 0 || cand < t.dist.(i) then begin
                  let i = if i < 0 then add t s else i in
                  t.dist.(i) <- cand;
                  t.parent.(i) <- e;
                  t.hops.(i) <- h0 + 1;
                  enqueue t i
                end
              end
            end
          done;
          if t.count > 0 then begin
            let i = dequeue t in
            let h = t.hops.(i) in
            if h < hop_cap then
              send_allowed ctx ~edge_ok (t.src.(i), t.dist.(i), if capped then h else 0);
            if t.count > 0 then ctx_stay_active ctx
          end;
          t);
    }
  in
  Engine.run g program

let multi_source ?(edge_ok = fun _ -> true) ?(bound = infinity) g ~srcs =
  explore ~edge_ok ~bound ~hop_cap:None g ~srcs

let hop_limited ?(edge_ok = fun _ -> true) ~hop_cap g ~srcs =
  explore ~edge_ok ~bound:infinity ~hop_cap:(Some hop_cap) g ~srcs

let length t = t.len

let entry t i =
  if i < 0 || i >= t.len then invalid_arg "Bellman_ford: no such table entry";
  i

let dist t i = t.dist.(entry t i)
let parent t i = t.parent.(entry t i)

let to_hashtbl t =
  let h = Hashtbl.create 8 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace h t.src.(i) (t.dist.(i), t.parent.(i))
  done;
  h

let path_to_source g tables v ~src =
  let rec walk v acc =
    if v = src then Some (List.rev (v :: acc))
    else begin
      let t = tables.(v) in
      let i = find t src in
      if i < 0 || t.parent.(i) < 0 then None
      else walk (Graph.other_end g t.parent.(i) v) (v :: acc)
    end
  in
  walk v []
