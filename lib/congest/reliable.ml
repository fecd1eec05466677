module Metrics = Ln_obs.Metrics

type 'm envelope = { ack : int; data : (int * 'm) option }

let rto = 2
let word_overhead = 2

(* Registry counter, bumped from inside [step]. Retransmissions need
   no counter here: each one is reported to the engine
   ([Engine.count_retransmission]), which publishes it as
   [lightnet_engine_retransmissions_total]. *)
let m_gave_up =
  Metrics.counter
    ~help:"Payloads abandoned on links that exhausted their retries."
    "lightnet_reliable_gave_up_total"

(* Per-incident-link connection state. Outgoing direction: [next_seq],
   [inflight] (at most one unacknowledged payload — stop-and-wait),
   [age] (rounds since it was last sent), [retries], and a two-list
   FIFO of payloads waiting behind it. Incoming direction: [expected],
   the next sequence number we will accept (= our cumulative ack).
   [dead] marks a link that exhausted its retries. *)
type 'm link = {
  next_seq : int;
  q_front : 'm list;
  q_back : 'm list;
  inflight : (int * 'm) option;
  age : int;
  retries : int;
  expected : int;
  dead : bool;
}

type ('s, 'm) state = {
  inner : 's;
  inner_active : bool;
  links : 'm link array;
  gave_up : int;
}

let project st = st.inner
let gave_up st = st.gave_up

let fresh_link =
  {
    next_seq = 0;
    q_front = [];
    q_back = [];
    inflight = None;
    age = 0;
    retries = 0;
    expected = 0;
    dead = false;
  }

let enqueue l m = { l with q_back = m :: l.q_back }

let dequeue l =
  match l.q_front with
  | m :: rest -> Some (m, { l with q_front = rest })
  | [] -> (
    match List.rev l.q_back with
    | [] -> None
    | m :: rest -> Some (m, { l with q_front = rest; q_back = [] }))

let pending l = 1 + List.length l.q_front + List.length l.q_back

(* One round of the outgoing half of a link, run after receipts have
   been processed: resend a timed-out inflight payload, promote the
   next queued payload onto an idle link, or just carry the ack the
   incoming half asked for. Returns the new link, the envelope to send
   (if any) and the number of payloads abandoned. *)
let advance ~max_retries ~must_ack l =
  let ack_only () =
    if must_ack then Some { ack = l.expected; data = None } else None
  in
  if l.dead then (l, ack_only (), 0)
  else
    match l.inflight with
    | Some (s, m) ->
      let age = l.age + 1 in
      if age < rto then ({ l with age }, ack_only (), 0)
      else if l.retries >= max_retries then begin
        if Metrics.on () then Metrics.add m_gave_up (pending l);
        ( {
            l with
            dead = true;
            inflight = None;
            q_front = [];
            q_back = [];
            age = 0;
          },
          ack_only (),
          pending l )
      end
      else begin
        Engine.count_retransmission ();
        ( { l with age = 0; retries = l.retries + 1 },
          Some { ack = l.expected; data = Some (s, m) },
          0 )
      end
    | None -> (
      match dequeue l with
      | None -> (l, ack_only (), 0)
      | Some (m, l') ->
        let s = l'.next_seq in
        ( {
            l' with
            next_seq = s + 1;
            inflight = Some (s, m);
            age = 0;
            retries = 0;
          },
          Some { ack = l'.expected; data = Some (s, m) },
          0 ))

let link_busy l = (not l.dead) && (l.inflight <> None || dequeue l <> None)

let link_index (ctx : _ Engine.ctx) edge =
  let deg = Engine.ctx_degree ctx in
  let rec go i =
    if i >= deg then invalid_arg "Reliable: message on unknown edge"
    else if Engine.ctx_edge ctx i = edge then i
    else go (i + 1)
  in
  go 0

let lift ?(max_retries = 32) (p : ('s, 'm) Engine.list_program) :
    (('s, 'm) state, 'm envelope) Engine.program =
  let words env =
    word_overhead
    + (match env.data with Some (_, m) -> p.words m | None -> 0)
  in
  let init (ctx : _ Engine.ctx) =
    let inner0, sends0 = p.init ctx in
    let links = Array.make (Engine.ctx_degree ctx) fresh_link in
    List.iter
      (fun ({ via; msg } : 'm Engine.send) ->
        let i = link_index ctx via in
        links.(i) <- enqueue links.(i) msg)
      sends0;
    let outs = ref [] in
    for i = Array.length links - 1 downto 0 do
      let l', env, _ = advance ~max_retries ~must_ack:false links.(i) in
      links.(i) <- l';
      match env with
      | Some e ->
        outs := ({ via = Engine.ctx_edge ctx i; msg = e } : _ Engine.send) :: !outs
      | None -> ()
    done;
    ({ inner = inner0; inner_active = true; links; gave_up = 0 }, !outs)
  in
  let step (ctx : _ Engine.ctx) ~round st (received : _ Engine.received list) =
    let links = Array.copy st.links in
    let must_ack = Array.make (Array.length links) false in
    (* Receive phase: process acks, accept in-order payloads. *)
    let deliveries = ref [] in
    List.iter
      (fun (r : 'm envelope Engine.received) ->
        let i = link_index ctx r.edge in
        let l = links.(i) in
        let l =
          match l.inflight with
          | Some (s, _) when s < r.payload.ack ->
            { l with inflight = None; age = 0; retries = 0 }
          | _ -> l
        in
        let l =
          match r.payload.data with
          | None -> l
          | Some (s, m) ->
            must_ack.(i) <- true;
            if s = l.expected then begin
              deliveries :=
                ({ from = r.from; edge = r.edge; payload = m }
                  : 'm Engine.received)
                :: !deliveries;
              { l with expected = s + 1 }
            end
            else l (* duplicate: re-ack, drop *)
        in
        links.(i) <- l)
      received;
    let deliveries = List.rev !deliveries in
    (* Inner phase: same contract as the engine's scheduler — step the
       wrapped program when it has mail or declared itself active. *)
    let inner, inner_sends, inner_active =
      if deliveries <> [] || st.inner_active then
        p.step ctx ~round st.inner deliveries
      else (st.inner, [], st.inner_active)
    in
    let gave = ref st.gave_up in
    List.iter
      (fun ({ via; msg } : 'm Engine.send) ->
        let i = link_index ctx via in
        if links.(i).dead then begin
          Stdlib.incr gave;
          if Metrics.on () then Metrics.incr m_gave_up
        end
        else links.(i) <- enqueue links.(i) msg)
      inner_sends;
    (* Send phase: one envelope per link at most — stop-and-wait keeps
       us inside the CONGEST one-message-per-edge discipline. *)
    let outs = ref [] in
    for i = Array.length links - 1 downto 0 do
      let l', env, abandoned =
        advance ~max_retries ~must_ack:must_ack.(i) links.(i)
      in
      links.(i) <- l';
      gave := !gave + abandoned;
      match env with
      | Some e ->
        outs :=
          ({ via = Engine.ctx_edge ctx i; msg = e } : _ Engine.send) :: !outs
      | None -> ()
    done;
    let busy = Array.exists link_busy links in
    ( { inner; inner_active; links; gave_up = !gave },
      !outs,
      inner_active || busy )
  in
  Engine.of_lists { name = p.name ^ "+arq"; words; init; step }
