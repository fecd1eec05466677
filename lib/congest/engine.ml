module Graph = Ln_graph.Graph
module Metrics = Ln_obs.Metrics

exception Congest_violation of string

type 'm received = { from : int; edge : int; payload : 'm }

(* Mailbox arena, unboxed: parallel arrays instead of an array of
   [received] records. Storing a freshly allocated record into a
   long-lived array would drag every message through the write barrier
   and promote it to the major heap at the next minor collection; with
   the fields split out, the int stores are barrier-free and a program
   reads a message straight out of the columns. *)
type 'm arena = {
  mutable from_ : int array;
  mutable edge_ : int array;
  mutable payload : 'm array;
  mutable link : int array;
  mutable len : int;
}

(* A run's message plumbing behind the ctx: the inbox cursor of the
   node being stepped, its active flag and the backend's send.

   The cursor walks the fast backend's arena chain ([slot] is the
   current message, [next] the one [ctx_inbox_next] moves to, -1 at the
   end) or a list inbox ([held] has the current message at its head,
   [rest] the ones after it): the reference backend's, or the one
   [nested] hands a wrapped program. A ctx uses one of the two and
   leaves the other empty, so the accessors try the list first and fall
   back to the arena. *)
type 'm io = {
  mutable arena : 'm arena;
  mutable slot : int;
  mutable next : int;
  mutable held : 'm received list;
  mutable rest : 'm received list;
  mutable stay : bool;
  send : int -> int -> 'm -> unit;  (* sender, edge, message *)
}

(* Flat per-node context: one record per *run* (not per node), holding
   the graph's CSR columns plus a mutable [me] cursor the engine points
   at the node being stepped. The accessors below index the shared
   columns directly, so the resident cost of the neighbor view is the
   one record. *)
type 'm ctx = {
  n : int;
  mutable me : int;
  off : int array;
  adj_eid : int array;
  adj_dst : int array;
  io : 'm io;
}

let io_of ~inbox send =
  let arena = { from_ = [||]; edge_ = [||]; payload = [||]; link = [||]; len = 0 } in
  { arena; slot = -1; next = -1; held = []; rest = inbox; stay = false; send }

let ctx_of g ~send =
  let gv = Graph.view g in
  {
    n = Graph.n g;
    me = 0;
    off = gv.Graph.off;
    adj_eid = gv.Graph.adj_eid;
    adj_dst = gv.Graph.adj_dst;
    io = io_of ~inbox:[] send;
  }

let ctx_degree c = c.off.(c.me + 1) - c.off.(c.me)

let ctx_edge c i =
  let p = c.off.(c.me) + i in
  if i < 0 || p >= c.off.(c.me + 1) then
    invalid_arg "Engine.ctx_edge: neighbor index out of range";
  c.adj_eid.(p)

let ctx_iter_neighbors c f =
  let eid = c.adj_eid and dst = c.adj_dst in
  for p = c.off.(c.me) to c.off.(c.me + 1) - 1 do
    f eid.(p) dst.(p)
  done

let ctx_inbox_next c =
  let io = c.io in
  match io.rest with
  | _ :: tl as l ->
    io.held <- l;
    io.rest <- tl;
    true
  | [] ->
    let i = io.next in
    if i < 0 then false
    else begin
      io.slot <- i;
      io.next <- io.arena.link.(i);
      true
    end

let ctx_inbox_from c =
  match c.io.held with r :: _ -> r.from | [] -> c.io.arena.from_.(c.io.slot)

let ctx_inbox_edge c =
  match c.io.held with r :: _ -> r.edge | [] -> c.io.arena.edge_.(c.io.slot)

let ctx_inbox_payload c =
  match c.io.held with r :: _ -> r.payload | [] -> c.io.arena.payload.(c.io.slot)

let ctx_send c ~via msg = c.io.send c.me via msg
let ctx_stay_active c = c.io.stay <- true

(* Point the cursor at node [me]'s inbox before its step: an arena chain
   from slot [head] (fast) or a list (reference). *)
let start_step c ~me ~head ~inbox =
  c.me <- me;
  let io = c.io in
  io.slot <- -1;
  io.next <- head;
  io.held <- [];
  io.rest <- inbox;
  io.stay <- false

type ('s, 'm) program = {
  name : string;
  words : 'm -> int;
  init : 'm ctx -> 's;
  step : 'm ctx -> round:int -> 's -> 's;
}

(* A wrapped program runs on a copy of the ctx with io of its own: the
   list cursor reads [inbox], and its sends go to [send]. *)
let nested c ~inbox ~send f =
  let io = io_of ~inbox (fun _ via msg -> send via msg) in
  let x = f { c with io } in
  (x, io.stay)

type observer = round:int -> from:int -> dest:int -> words:int -> unit

type outcome = Converged | Round_limit

type stats = {
  rounds : int;
  messages : int;
  total_words : int;
  max_edge_load : int;
  outcome : outcome;
  dropped_messages : int;
  retransmissions : int;
}

let add_stats a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    total_words = a.total_words + b.total_words;
    max_edge_load = max a.max_edge_load b.max_edge_load;
    outcome =
      (if a.outcome = Round_limit || b.outcome = Round_limit then Round_limit
       else Converged);
    dropped_messages = a.dropped_messages + b.dropped_messages;
    retransmissions = a.retransmissions + b.retransmissions;
  }

type perf = {
  mutable runs : int;
  mutable rounds : int;
  mutable steps : int;
  mutable skipped : int;
  mutable messages : int;
  mutable words : int;
  mutable wall : float;
  mutable arena_cap : int;
  mutable arena_grows : int;
  mutable dropped_messages : int;
  mutable retransmissions : int;
}

let create_perf () =
  {
    runs = 0;
    rounds = 0;
    steps = 0;
    skipped = 0;
    messages = 0;
    words = 0;
    wall = 0.0;
    arena_cap = 0;
    arena_grows = 0;
    dropped_messages = 0;
    retransmissions = 0;
  }

(* Cumulative counters across every run in the process, so algorithms
   can attribute simulator work to their phases without threading a
   [perf] through every primitive signature (see [snapshot_totals]). *)
let totals = create_perf ()

let snapshot_totals () = { totals with runs = totals.runs }

let totals_since before =
  {
    runs = totals.runs - before.runs;
    rounds = totals.rounds - before.rounds;
    steps = totals.steps - before.steps;
    skipped = totals.skipped - before.skipped;
    messages = totals.messages - before.messages;
    words = totals.words - before.words;
    wall = totals.wall -. before.wall;
    arena_cap = max totals.arena_cap before.arena_cap;
    arena_grows = totals.arena_grows - before.arena_grows;
    dropped_messages = totals.dropped_messages - before.dropped_messages;
    retransmissions = totals.retransmissions - before.retransmissions;
  }

let add_perf ~into p =
  into.runs <- into.runs + p.runs;
  into.rounds <- into.rounds + p.rounds;
  into.steps <- into.steps + p.steps;
  into.skipped <- into.skipped + p.skipped;
  into.messages <- into.messages + p.messages;
  into.words <- into.words + p.words;
  into.wall <- into.wall +. p.wall;
  into.arena_cap <- max into.arena_cap p.arena_cap;
  into.arena_grows <- into.arena_grows + p.arena_grows;
  into.dropped_messages <- into.dropped_messages + p.dropped_messages;
  into.retransmissions <- into.retransmissions + p.retransmissions

let skip_ratio p =
  let scanned = p.steps + p.skipped in
  if scanned = 0 then 0.0 else float_of_int p.skipped /. float_of_int scanned

let rounds_per_sec p =
  if p.wall <= 0.0 then 0.0 else float_of_int p.rounds /. p.wall

let messages_per_sec p =
  if p.wall <= 0.0 then 0.0 else float_of_int p.messages /. p.wall

let pp_perf ppf p =
  Format.fprintf ppf
    "runs=%d rounds=%d steps=%d skipped=%d (skip %.1f%%) msgs=%d wall=%.3fs \
     (%.0f rounds/s, %.0f msgs/s) arena=%d words, %d grows"
    p.runs p.rounds p.steps p.skipped
    (100.0 *. skip_ratio p)
    p.messages p.wall (rounds_per_sec p) (messages_per_sec p) p.arena_cap
    p.arena_grows;
  if p.dropped_messages > 0 || p.retransmissions > 0 then
    Format.fprintf ppf ", dropped=%d retrans=%d" p.dropped_messages
      p.retransmissions

let violation fmt = Format.kasprintf (fun s -> raise (Congest_violation s)) fmt

(* Registry counters for the always-on metrics layer (ln_obs): one
   family per backend label, registered once at module init and bumped
   with per-run aggregates in [finish_perf] — the per-round hot loops
   stay untouched, so a disabled registry costs one ref read per run. *)
type eng_metrics = {
  m_runs : Metrics.counter;
  m_rounds : Metrics.counter;
  m_messages : Metrics.counter;
  m_words : Metrics.counter;
  m_drops : Metrics.counter;
  m_retrans : Metrics.counter;
}

let eng_metrics backend =
  let c suffix help =
    Metrics.counter ~help
      ~labels:[ ("backend", backend) ]
      ("lightnet_engine_" ^ suffix)
  in
  {
    m_runs = c "runs_total" "Engine runs completed.";
    m_rounds = c "rounds_total" "Engine rounds executed.";
    m_messages = c "messages_total" "Messages delivered to nodes.";
    m_words = c "words_total" "Message words delivered to nodes.";
    m_drops = c "drops_total" "Messages dropped by fault injection.";
    m_retrans = c "retransmissions_total" "Retransmissions charged to runs.";
  }

let em_reference = eng_metrics "reference"
let em_fast = eng_metrics "fast"

let finish_perf perf ~em ~rounds ~steps ~skipped ~messages ~words ~wall
    ~arena_cap ~arena_grows ~dropped ~retrans =
  if Metrics.on () then begin
    Metrics.incr em.m_runs;
    Metrics.add em.m_rounds rounds;
    Metrics.add em.m_messages messages;
    Metrics.add em.m_words words;
    Metrics.add em.m_drops dropped;
    Metrics.add em.m_retrans retrans
  end;
  let record p =
    p.runs <- p.runs + 1;
    p.rounds <- p.rounds + rounds;
    p.steps <- p.steps + steps;
    p.skipped <- p.skipped + skipped;
    p.messages <- p.messages + messages;
    p.words <- p.words + words;
    p.wall <- p.wall +. wall;
    p.arena_cap <- max p.arena_cap arena_cap;
    p.arena_grows <- p.arena_grows + arena_grows;
    p.dropped_messages <- p.dropped_messages + dropped;
    p.retransmissions <- p.retransmissions + retrans
  in
  record totals;
  match perf with Some p -> record p | None -> ()

(* ------------------------------------------------------------------ *)
(* Run context. The engine belongs to the one domain that runs the
   program, so the retransmission cell, the fault plan and the tap are
   plain module-level values, like [totals] and [backend].

   [retrans_cell] points at the innermost running engine's
   retransmission counter; [count_retransmission] is the hook
   reliable-delivery combinators call from inside a [step] to attribute
   the duplicate send they are about to emit. The cell is
   saved/restored around every run (including on exceptions), so nested
   engine runs attribute correctly and calls outside any run land in a
   sink. *)

let sink = ref 0
let retrans_cell = ref sink
let count_retransmission () = incr !retrans_cell

let ambient_faults : (Fault.plan * int option) option ref = ref None

type round_probe =
  run:int ->
  round:int ->
  messages:int ->
  words:int ->
  steps:int ->
  active:int ->
  drops:int ->
  unit

(* The tap [with_tap] installs: a message and a round callback, each
   the composition of every enclosing tap's, innermost first.
   [tap_runs] numbers the runs the round callback sees, from 0 at the
   outermost install. *)
let tap : (observer option * round_probe option) option ref = ref None
let tap_runs = ref 0

let seq_message a b =
  match (a, b) with
  | None, o | o, None -> o
  | Some f, Some g ->
    Some
      (fun ~round ~from ~dest ~words ->
        f ~round ~from ~dest ~words;
        g ~round ~from ~dest ~words)

let seq_round a b =
  match (a, b) with
  | None, o | o, None -> o
  | Some f, Some g ->
    Some
      (fun ~run ~round ~messages ~words ~steps ~active ~drops ->
        f ~run ~round ~messages ~words ~steps ~active ~drops;
        g ~run ~round ~messages ~words ~steps ~active ~drops)

let with_tap ?message ?round f =
  let old = !tap in
  let now =
    match old with
    | None ->
      tap_runs := 0;
      (message, round)
    | Some (m, r) -> (seq_message message m, seq_round round r)
  in
  tap := Some now;
  Fun.protect ~finally:(fun () -> tap := old) f

(* A run reads the tap once, and takes a number only under a round
   callback. *)
let read_tap () =
  match !tap with
  | Some (m, (Some _ as r)) ->
    incr tap_runs;
    (m, r, !tap_runs - 1)
  | Some (m, None) -> (m, None, 0)
  | None -> (None, None, 0)

let with_faults ?max_rounds plan f =
  let old = !ambient_faults in
  ambient_faults := Some (plan, max_rounds);
  Fun.protect ~finally:(fun () -> ambient_faults := old) f

(* Resolve a run's fault plan (the ambient one, if any) and round-limit
   policy: under faults the round cap defaults to marking instead of
   raising (a capped chaotic run is an expected outcome for the
   monitors to classify, not a bug). *)
let resolve_fault_context ~max_rounds ~on_round_limit =
  match !ambient_faults with
  | None ->
    ( None,
      Option.value max_rounds ~default:10_000_000,
      Option.value on_round_limit ~default:`Raise )
  | Some (plan, cap) ->
    Fault.begin_run plan;
    let cap = Option.value cap ~default:10_000_000 in
    ( Some plan,
      Option.value max_rounds ~default:cap,
      Option.value on_round_limit ~default:`Mark )

(* ------------------------------------------------------------------ *)
(* Reference engine: the original list-inbox, hashtable-tracked
   implementation, stepping the same cursor programs over its lists.
   Semantics are the specification; the fast engine below must be
   observationally identical (states, stats, tap call sequence). Kept
   as the accounting-strict differential baseline and as the "before"
   side of bench/engine_bench. *)

let run_reference ?(word_cap = 4) ?max_rounds ?on_round_limit ?perf g p =
  let faults, max_rounds, on_round_limit =
    resolve_fault_context ~max_rounds ~on_round_limit
  in
  let observer, probe, probe_run = read_tap () in
  let t0 = Unix.gettimeofday () in
  let n = Graph.n g in
  let active = Array.make n true in
  (* Messages in flight, to be delivered at the start of the next
     round: per destination vertex, newest first. *)
  let inbox : 'm received list array = Array.make n [] in
  let next_inbox : 'm received list array = Array.make n [] in
  let messages = ref 0 in
  let total_words = ref 0 in
  let max_edge_load = ref 0 in
  let in_flight = ref 0 in
  let steps = ref 0 in
  let skipped = ref 0 in
  let dropped = ref 0 in
  let retrans = ref 0 in
  let saved_cell = !retrans_cell in
  retrans_cell := retrans;
  Fun.protect ~finally:(fun () -> retrans_cell := saved_cell)
  @@ fun () ->
  (* Tracks, per round, words sent per (edge, direction) for cap
     enforcement. Key: edge * 2 + dir. *)
  let sent_this_round = Hashtbl.create 64 in
  let current_round = ref 0 in
  (* One send, checked and delivered at send time. *)
  let send sender via msg =
    let u, v = Graph.endpoints g via in
    let dest =
      if u = sender then v
      else if v = sender then u
      else violation "%s: node %d sent over non-incident edge %d" p.name sender via
    in
    let w = p.words msg in
    if w > word_cap then
      violation "%s: node %d sent %d-word message (cap %d)" p.name sender w word_cap;
    let key = (via * 2) + if sender < dest then 0 else 1 in
    (match Hashtbl.find_opt sent_this_round key with
    | Some _ ->
      violation "%s: node %d sent twice over edge %d in one round" p.name sender via
    | None -> Hashtbl.replace sent_this_round key w);
    if w > !max_edge_load then max_edge_load := w;
    (match observer with
    | Some f -> f ~round:!current_round ~from:sender ~dest ~words:w
    | None -> ());
    incr messages;
    total_words := !total_words + w;
    (* The send happened (and was charged above); the fault plan
       decides whether it survives transit. *)
    let lost =
      match faults with
      | None -> false
      | Some plan -> (
        match Fault.fate plan ~sender ~dest ~edge:via ~round:!current_round with
        | None -> false
        | Some c ->
          Fault.record plan c;
          incr dropped;
          true)
    in
    if not lost then begin
      incr in_flight;
      next_inbox.(dest) <- { from = sender; edge = via; payload = msg } :: next_inbox.(dest)
    end
  in
  (* One shared context; [start_step] points it at the node about to
     run. The ctx handed to [init]/[step] is only valid for the duration
     of that call (documented in the mli). *)
  let c = ctx_of g ~send in
  (* Per-round telemetry deltas (only consulted when a probe is set). *)
  let pm = ref 0 and pw = ref 0 and ps = ref 0 and pd = ref 0 in
  let emit_sample ~round ~active_now =
    match probe with
    | None -> ()
    | Some f ->
      f ~run:probe_run ~round
        ~messages:(!messages - !pm)
        ~words:(!total_words - !pw)
        ~steps:(!steps - !ps) ~active:active_now
        ~drops:(!dropped - !pd);
      pm := !messages;
      pw := !total_words;
      ps := !steps;
      pd := !dropped
  in
  (* Round 0: init, in ascending node order. *)
  Hashtbl.reset sent_this_round;
  let states =
    Array.init n (fun v ->
        start_step c ~me:v ~head:(-1) ~inbox:[];
        p.init c)
  in
  emit_sample ~round:0 ~active_now:n;
  let rounds = ref 0 in
  let continue = ref (!in_flight > 0 || Array.exists (fun b -> b) active) in
  while !continue && !rounds < max_rounds do
    incr rounds;
    current_round := !rounds;
    (* Flip message buffers. *)
    for v = 0 to n - 1 do
      inbox.(v) <- next_inbox.(v);
      next_inbox.(v) <- []
    done;
    in_flight := 0;
    Hashtbl.reset sent_this_round;
    let round_active = ref 0 in
    for v = 0 to n - 1 do
      let msgs = inbox.(v) in
      if
        match faults with
        | Some plan -> Fault.crashed plan ~node:v ~round:!rounds
        | None -> false
      then begin
        (* Crashed: the node is not stepped while the plan says it is
           down. Its inbox is necessarily empty (sends to it were
           dropped in transit). Crash-stop nodes never run again; a
           crash-recovery window leaves the state intact and the node
           wakes on the first message delivered at or after its
           recover round. *)
        active.(v) <- false;
        incr skipped
      end
      else if active.(v) || msgs <> [] then begin
        incr steps;
        start_step c ~me:v ~head:(-1) ~inbox:msgs;
        states.(v) <- p.step c ~round:!rounds states.(v);
        let still = c.io.stay in
        active.(v) <- still;
        if still then incr round_active
      end
      else incr skipped;
      inbox.(v) <- []
    done;
    emit_sample ~round:!rounds ~active_now:!round_active;
    continue := !in_flight > 0 || !round_active > 0
  done;
  let outcome = if !continue then Round_limit else Converged in
  if outcome = Round_limit && on_round_limit = `Raise then
    violation "%s: round limit %d reached without quiescence" p.name max_rounds;
  finish_perf perf ~em:em_reference ~rounds:!rounds ~steps:!steps
    ~skipped:!skipped ~messages:!messages ~words:!total_words
    ~wall:(Unix.gettimeofday () -. t0)
    ~arena_cap:0 ~arena_grows:0 ~dropped:!dropped ~retrans:!retrans;
  ( states,
    {
      rounds = !rounds;
      messages = !messages;
      total_words = !total_words;
      max_edge_load = !max_edge_load;
      outcome;
      dropped_messages = !dropped;
      retransmissions = !retrans;
    } )

(* ------------------------------------------------------------------ *)
(* Fast engine.

   Same observable behaviour as [run_reference], engineered for
   throughput:

   - Arena mailboxes: in-flight messages live in flat, reused slot
     columns; per-destination inboxes are intrusive index chains
     ([link] / [head]), so delivery is a few array stores, a step's
     inbox cursor walks the chain in place, and steady-state rounds
     reuse the same buffers instead of churning per-node lists through
     the GC. Two arenas (current / next round) swap in O(1).

   - Generation-stamped cap tracking: the per-round duplicate-send
     check is one compare against a per-(edge,direction) int array
     stamped with the round number — no hashing, no per-round reset.

   - Active-set scheduling: a worklist holds exactly the nodes that
     are active or have pending messages; quiescent nodes cost nothing
     instead of an O(n) scan per round. The worklist is sorted each
     round so nodes step in ascending id order, which makes the
     tap's call sequence and inbox order bit-identical to the
     reference engine. *)

(* In-place quicksort (insertion sort below 16) on [a.(0 .. len-1)];
   avoids the Array.sub + Array.sort copy on the hot path. *)
let sort_prefix a len =
  let rec qsort lo hi =
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median-of-three pivot *)
      if a.(mid) < a.(lo) then (let t = a.(lo) in a.(lo) <- a.(mid); a.(mid) <- t);
      if a.(hi) < a.(lo) then (let t = a.(lo) in a.(lo) <- a.(hi); a.(hi) <- t);
      if a.(hi) < a.(mid) then (let t = a.(mid) in a.(mid) <- a.(hi); a.(hi) <- t);
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do incr i done;
        while a.(!j) > pivot do decr j done;
        if !i <= !j then begin
          let t = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- t;
          incr i;
          decr j
        end
      done;
      if lo < !j then qsort lo !j;
      if !i < hi then qsort !i hi
    end
  in
  if len > 1 then qsort 0 (len - 1)

(* Per-graph scratch state, reused across runs on the same graph (the
   common shape: one graph, many engine invocations). Everything in
   here is monomorphic — message-typed buffers (the arenas) stay
   per-run. [stamp] makes every per-node/per-edge validity check
   monotonic across runs, so none of the O(n)/O(m) arrays is ever
   reset: a warm [acquire_scratch] is O(1). The stamp discipline
   (with [stamp_base] = the run's [stamp], [last_stamp] = [stamp_base]
   + round):

   - [sent_round.(edge*2+dir)] carried a message iff it equals
     [last_stamp] (duplicate-send cap check).
   - [s_idle.(v)]: v is *inactive* iff it equals [stamp_base]; any
     other value (0, or a stale stamp from an earlier run, both
     strictly below this run's [stamp_base]) means active — which
     makes "every node starts active" free.
   - [q_stamp.(v)]: v is already queued in [wl_nxt] for round
     [s] iff it equals [stamp_base + s] (membership dedup only; the
     worklist itself is the source of truth).
   - [hs_a]/[hs_b] stamp the [head_a]/[head_b] inbox-chain heads:
     [head.(v)] is a live chain for round [s] iff [hs.(v) =
     stamp_base + s]. Stale heads (earlier rounds, earlier runs, or a
     run cut off by a round limit) simply expire instead of being
     cleared entry-by-entry.

   Release stamps the scratch with [last_stamp + 1], strictly above
   every stamp the finished run wrote, so no stale entry can collide
   with a later run. [make_scratch] starts at 1 because 0 is the
   "active" value of a fresh [s_idle]. One slot, keyed by physical
   equality; [busy] falls back to fresh allocation under reentrancy (a
   program stepping the engine). *)
type scratch = {
  sg : Graph.t;
  s_idle : int array;
  q_stamp : int array;
  sent_round : int array;
  s_wl_cur : int array;
  s_wl_nxt : int array;
  head_a : int array;
  head_b : int array;
  hs_a : int array;
  hs_b : int array;
  (* Cached arena int columns (two arenas); the payload column is
     message-typed and must stay per-run, but these keep their steady-
     state capacity across runs so warm runs do a single full-size
     payload allocation and no capacity growth at all. *)
  mutable a_from : int array;
  mutable a_edge : int array;
  mutable a_link : int array;
  mutable b_from : int array;
  mutable b_edge : int array;
  mutable b_link : int array;
  mutable stamp : int;
  mutable busy : bool;
}

let scratch_slot : scratch option ref = ref None

let make_scratch g =
  let n = Graph.n g in
  let m = Graph.m g in
  {
    sg = g;
    s_idle = Array.make (max n 1) 0;
    q_stamp = Array.make (max n 1) 0;
    sent_round = Array.make (max 1 (2 * m)) (-1);
    s_wl_cur = Array.make (max n 1) 0;
    s_wl_nxt = Array.make (max n 1) 0;
    head_a = Array.make (max n 1) (-1);
    head_b = Array.make (max n 1) (-1);
    hs_a = Array.make (max n 1) 0;
    hs_b = Array.make (max n 1) 0;
    a_from = [||];
    a_edge = [||];
    a_link = [||];
    b_from = [||];
    b_edge = [||];
    b_link = [||];
    stamp = 1;
    busy = false;
  }

(* Acquire scratch for [g]: a cache hit is O(1) — every per-node array
   is stamp-guarded (see the scratch note above), so nothing is filled
   or reset. *)
let acquire_scratch g =
  match !scratch_slot with
  | Some s when s.sg == g && not s.busy ->
    s.busy <- true;
    s
  | _ ->
    let s = make_scratch g in
    s.busy <- true;
    (match !scratch_slot with
    | Some old when old.busy -> ()  (* keep the slot of the outer run *)
    | _ -> scratch_slot := Some s);
    s

let release_scratch s ~stamp =
  s.stamp <- stamp;
  s.busy <- false

(* ------------------------------------------------------------------ *)
(* Fast engine: every send goes into the next round's arena as it is
   made, and a step reads its inbox straight out of the current one. *)

let run_fast ?(word_cap = 4) ?max_rounds ?on_round_limit ?perf g p =
  let faults, max_rounds, on_round_limit =
    resolve_fault_context ~max_rounds ~on_round_limit
  in
  let observer, probe, probe_run = read_tap () in
  let t0 = Unix.gettimeofday () in
  let n = Graph.n g in
  let sc = acquire_scratch g in
  let gv = Graph.view g in
  let eu = gv.Graph.eu and ev = gv.Graph.ev in
  (* Last stamp at which each (edge, direction) carried a message;
     comparing against the current stamp replaces the reference
     engine's per-round hashtable. Stamps are monotonic across runs
     ([sc.stamp] + round), so the array never needs resetting. *)
  let sent_round = sc.sent_round in
  let stamp_base = sc.stamp in
  let last_stamp = ref stamp_base in
  (* Activity flags, stamp-guarded (see the scratch note): [v] is
     inactive iff [s_idle.(v) = stamp_base], so every node starts this
     run active without an O(n) fill. *)
  let s_idle = sc.s_idle in
  (* Double-buffered arenas: [cur] holds messages being consumed this
     round, [nxt] collects sends for the next one. [head_*.(v)] is the
     first slot index of v's inbox chain (-1 = empty). Int columns come
     from the scratch cache; payloads are message-typed, so that column
     is allocated per run (in one shot once the capacity is warm). *)
  let cur =
    ref { from_ = sc.a_from; edge_ = sc.a_edge; payload = [||]; link = sc.a_link; len = 0 }
  in
  let nxt =
    ref { from_ = sc.b_from; edge_ = sc.b_edge; payload = [||]; link = sc.b_link; len = 0 }
  in
  let dropped = ref 0 in
  let retrans = ref 0 in
  let saved_cell = !retrans_cell in
  retrans_cell := retrans;
  (* The scratch must go back to the cache on every exit path —
     including model violations and exceptions raised by program code —
     or the slot would stay marked busy and disable reuse. Grown arena
     columns are written back so the capacity ratchets up. *)
  Fun.protect
    ~finally:(fun () ->
      retrans_cell := saved_cell;
      let a = !cur and b = !nxt in
      sc.a_from <- a.from_;
      sc.a_edge <- a.edge_;
      sc.a_link <- a.link;
      sc.b_from <- b.from_;
      sc.b_edge <- b.edge_;
      sc.b_link <- b.link;
      release_scratch sc ~stamp:(!last_stamp + 1))
  @@ fun () ->
  (* Inbox heads travel with their stamp arrays: [head.(v)] is a live
     chain for the round with stamp [s] iff [hs.(v) = s]. Stale heads
     from earlier rounds/runs expire by stamp mismatch, so neither
     array is ever cleared. *)
  let head_cur = ref sc.head_a in
  let head_nxt = ref sc.head_b in
  let hs_cur = ref sc.hs_a in
  let hs_nxt = ref sc.hs_b in
  let arena_grows = ref 0 in
  (* The payload column is the limiting one (the int columns may carry
     cached capacity from earlier runs). Its first allocation jumps
     straight to the cached capacity; [arena_grows] counts only true
     capacity growth, so it stays 0 in steady state. [fill] is the
     message being delivered: using it to seed the new payload array
     keeps the code [Obj.magic]-free (and float-array safe) without
     requiring a dummy ['m]. *)
  let grow arena (fill : 'm) =
    let old = Array.length arena.payload in
    let cap = if old = 0 then max 64 (Array.length arena.link) else 2 * old in
    let payload = Array.make cap fill in
    Array.blit arena.payload 0 payload 0 arena.len;
    arena.payload <- payload;
    if Array.length arena.link < cap then begin
      let from_ = Array.make cap 0 in
      let edge_ = Array.make cap 0 in
      let link = Array.make cap (-1) in
      Array.blit arena.from_ 0 from_ 0 arena.len;
      Array.blit arena.edge_ 0 edge_ 0 arena.len;
      Array.blit arena.link 0 link 0 arena.len;
      arena.from_ <- from_;
      arena.edge_ <- edge_;
      arena.link <- link;
      incr arena_grows
    end
  in
  (* Active-set worklist: nodes to step next round (active, or with a
     pending message). [q_stamp.(v) = next round's stamp] marks
     membership in [wl_nxt] — a pure dedup guard, never consulted for
     scheduling, so it needs no reset (stale stamps expire). *)
  let wl_cur = sc.s_wl_cur in
  let wl_nxt = sc.s_wl_nxt in
  let wl_nxt_len = ref 0 in
  let q_stamp = sc.q_stamp in
  let push_next v =
    let s1 = !last_stamp + 1 in
    if q_stamp.(v) <> s1 then begin
      q_stamp.(v) <- s1;
      wl_nxt.(!wl_nxt_len) <- v;
      incr wl_nxt_len
    end
  in
  let messages = ref 0 in
  let total_words = ref 0 in
  let max_edge_load = ref 0 in
  let steps = ref 0 in
  let skipped = ref 0 in
  let round_active = ref 0 in
  let current_round = ref 0 in
  (* Per-round telemetry deltas (only consulted when a probe is set). *)
  let pm = ref 0 and pw = ref 0 and ps = ref 0 and pd = ref 0 in
  let emit_sample ~round ~active_now =
    match probe with
    | None -> ()
    | Some f ->
      f ~run:probe_run ~round
        ~messages:(!messages - !pm)
        ~words:(!total_words - !pw)
        ~steps:(!steps - !ps) ~active:active_now
        ~drops:(!dropped - !pd);
      pm := !messages;
      pw := !total_words;
      ps := !steps;
      pd := !dropped
  in
  (* One send, checked and delivered into the next round's arena at
     send time. *)
  let send sender via msg =
    (* Endpoint resolution via the precomputed endpoint arrays —
       [Graph.endpoints] would allocate a tuple per message. (An
       out-of-range edge id raises [Invalid_argument] from the array
       access, as it does in the reference engine.) *)
    let dest =
      if eu.(via) = sender then ev.(via)
      else if ev.(via) = sender then eu.(via)
      else violation "%s: node %d sent over non-incident edge %d" p.name sender via
    in
    let w = p.words msg in
    if w > word_cap then
      violation "%s: node %d sent %d-word message (cap %d)" p.name sender w word_cap;
    let key = (via * 2) + if sender < dest then 0 else 1 in
    if sent_round.(key) = !last_stamp then
      violation "%s: node %d sent twice over edge %d in one round" p.name sender via;
    sent_round.(key) <- !last_stamp;
    if w > !max_edge_load then max_edge_load := w;
    (match observer with
    | Some f -> f ~round:!current_round ~from:sender ~dest ~words:w
    | None -> ());
    incr messages;
    total_words := !total_words + w;
    (* The send happened (and was charged above); the fault plan
       decides whether it survives transit. This branch is a single
       option check on the fault-free path. *)
    let lost =
      match faults with
      | None -> false
      | Some plan -> (
        match Fault.fate plan ~sender ~dest ~edge:via ~round:!current_round with
        | None -> false
        | Some c ->
          Fault.record plan c;
          incr dropped;
          true)
    in
    if not lost then begin
      let a = !nxt in
      if a.len = Array.length a.payload then grow a msg;
      let idx = a.len in
      a.len <- idx + 1;
      a.from_.(idx) <- sender;
      a.edge_.(idx) <- via;
      a.payload.(idx) <- msg;
      (* Chain onto the destination's next-round inbox; a head whose
         stamp is not the next round's is stale and treated as empty. *)
      let s1 = !last_stamp + 1 in
      let hn = !head_nxt and hsn = !hs_nxt in
      a.link.(idx) <- (if hsn.(dest) = s1 then hn.(dest) else -1);
      hn.(dest) <- idx;
      hsn.(dest) <- s1;
      push_next dest
    end
  in
  (* One context per run; [start_step] points it at the node about to
     run and at its inbox chain in the current arena. *)
  let c = ctx_of g ~send in
  (* Round 0: init, in ascending node order, each node's sends going
     out as it makes them — exactly the reference schedule. Every node
     starts active, so the first worklist is all of [0 .. n-1]
     (matching the reference engine's first scan). *)
  let states =
    Array.init n (fun v ->
        start_step c ~me:v ~head:(-1) ~inbox:[];
        p.init c)
  in
  for v = 0 to n - 1 do
    push_next v
  done;
  emit_sample ~round:0 ~active_now:n;
  let rounds = ref 0 in
  while !wl_nxt_len > 0 && !rounds < max_rounds do
    incr rounds;
    let r = !rounds in
    current_round := r;
    last_stamp := stamp_base + r;
    (* Swap arenas, inbox heads (with their stamp arrays) and
       worklists. Nothing is cleaned: the swapped-in structures carry
       stale entries whose stamps no longer match. *)
    let a = !cur in
    cur := !nxt;
    nxt := a;
    a.len <- 0;
    let h = !head_cur in
    head_cur := !head_nxt;
    head_nxt := h;
    let hh = !hs_cur in
    hs_cur := !hs_nxt;
    hs_nxt := hh;
    let wlen = !wl_nxt_len in
    wl_nxt_len := 0;
    let cur_stamp = !last_stamp in
    round_active := 0;
    let arena = !cur in
    let heads = !head_cur in
    let hs = !hs_cur in
    c.io.arena <- arena;
    let process v =
      if
        match faults with
        | Some plan -> Fault.crashed plan ~node:v ~round:r
        | None -> false
      then begin
        (* Crashed: not stepped, not re-queued. The inbox chain is
           necessarily empty (sends to it were dropped); its head, if
           any, expires by stamp. A node with a recovery window
           re-enters the worklist through the normal delivery push of
           the first message that reaches it at or after its recover
           round — identical to the reference engine, whose scan steps
           it on that same message. *)
        s_idle.(v) <- stamp_base;
        incr skipped
      end
      else begin
        let head = if hs.(v) = cur_stamp then heads.(v) else -1 in
        if s_idle.(v) <> stamp_base || head >= 0 then begin
          incr steps;
          start_step c ~me:v ~head ~inbox:[];
          states.(v) <- p.step c ~round:r states.(v);
          if c.io.stay then begin
            s_idle.(v) <- 0;
            incr round_active;
            push_next v
          end
          else s_idle.(v) <- stamp_base
        end
      end
    in
    (* Nodes must step in ascending id order (bit-compatibility with
       the reference engine). Dense rounds — the norm on power-law
       frontiers — iterate vertex ids directly (the direction-optimizing
       idiom): round-r membership is exactly [still-active || live inbox
       head], the same predicate [push_next] enforced when filling
       [wl_nxt], so no materialization or sort is needed. Sparse rounds
       sort the push list in place. *)
    if 8 * wlen >= n then begin
      let members = ref 0 in
      for v = 0 to n - 1 do
        if s_idle.(v) <> stamp_base || hs.(v) = cur_stamp then begin
          incr members;
          process v
        end
      done;
      skipped := !skipped + (n - !members)
    end
    else begin
      Array.blit wl_nxt 0 wl_cur 0 wlen;
      sort_prefix wl_cur wlen;
      skipped := !skipped + (n - wlen);
      for i = 0 to wlen - 1 do
        process wl_cur.(i)
      done
    end;
    emit_sample ~round:r ~active_now:!round_active
  done;
  let outcome = if !wl_nxt_len > 0 then Round_limit else Converged in
  if outcome = Round_limit && on_round_limit = `Raise then
    violation "%s: round limit %d reached without quiescence" p.name max_rounds;
  finish_perf perf ~em:em_fast ~rounds:!rounds ~steps:!steps
    ~skipped:!skipped ~messages:!messages ~words:!total_words
    ~wall:(Unix.gettimeofday () -. t0)
    ~arena_cap:(Array.length !cur.link + Array.length !nxt.link)
    ~arena_grows:!arena_grows ~dropped:!dropped ~retrans:!retrans;
  ( states,
    {
      rounds = !rounds;
      messages = !messages;
      total_words = !total_words;
      max_edge_load = !max_edge_load;
      outcome;
      dropped_messages = !dropped;
      retransmissions = !retrans;
    } )

(* ------------------------------------------------------------------ *)

type backend = Fast | Reference | Par of int

let backend = ref Fast
let set_backend b = backend := b
let current_backend () = !backend

let with_backend b f =
  let old = !backend in
  backend := b;
  Fun.protect ~finally:(fun () -> backend := old) f

let run ?word_cap ?max_rounds ?on_round_limit ?perf g p =
  match !backend with
  | Fast | Par _ -> run_fast ?word_cap ?max_rounds ?on_round_limit ?perf g p
  | Reference -> run_reference ?word_cap ?max_rounds ?on_round_limit ?perf g p

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "rounds=%d msgs=%d words=%d max_edge_load=%d outcome=%s"
    s.rounds s.messages s.total_words s.max_edge_load
    (match s.outcome with
    | Converged -> "converged"
    | Round_limit -> "round-limit");
  if s.dropped_messages > 0 || s.retransmissions > 0 then
    Format.fprintf ppf " dropped=%d retrans=%d" s.dropped_messages
      s.retransmissions
