(** Synchronous CONGEST-model simulator.

    A network is a weighted graph in which every vertex hosts a
    processor. Computation proceeds in synchronous rounds; in each
    round a vertex may send one message of at most [word_cap] machine
    words (a word models O(log n) bits) over each incident edge, and
    receives in the next round everything sent to it. The engine
    *enforces* the model: a program that sends two messages over one
    edge in a round, or an oversized message, crashes with
    [Congest_violation] — so passing the test-suite certifies model
    compliance.

    Programs are written as per-node state machines over a restricted
    local view ({!ctx}): a node knows [n], its own id and its incident
    edges, and nothing else. An incident edge's weight is local
    knowledge too, but the ctx does not carry it: a program reads it
    from the graph it runs on, with [Graph.weight g e] or the [ew]
    column of [Graph.view g]. There is one program type, {!program}:
    a cursor step that reads its inbox and sends through the ctx. A
    combinator that wraps a program steps it through {!nested}.

    Two observationally identical engines exist (see DESIGN.md,
    "Engine internals"): {!run_fast}, the default — arena mailboxes,
    generation-stamped cap tracking and an active-set scheduler — and
    {!run_reference}, the simple list-based specification engine kept
    as the differential-testing baseline. {!run} dispatches on the
    process-wide {!backend}.

    The engine belongs to the one domain that runs the program: its
    totals, backend, fault plan, tap and scratch are plain process
    globals, so running it from a second domain at the same time is a
    data race. *)

exception Congest_violation of string

(** A run's message plumbing behind a {!ctx}: the inbox cursor, the
    active flag and the send path. Engine-owned; programs reach it
    through the [ctx_inbox_*], {!ctx_send} and {!ctx_stay_active}
    accessors. *)
type 'm io

(** Local view available to a node's program: [n], this node's id
    [me] and its incident edges (via the [ctx_*] accessors below), plus
    this step's inbox and send path for messages of type ['m].

    The record is a {e cursor}: the engine keeps one per run (not one
    per node) and repoints [me] and the inbox before each
    [init]/[step] call. It aliases the graph's CSR columns, so the
    per-node neighbor view costs no resident memory at all — the
    accessors index the shared columns directly. Consequences for
    programs: the ctx, and its inbox cursor above all, is only valid
    for the duration of the [init]/[step] call it was passed to (do
    not store it in the node state or a closure that outlives the
    call), and all fields are read-only ([private] — construction and
    the cursors belong to the engine). *)
type 'm ctx = private {
  n : int;  (** number of vertices in the network *)
  mutable me : int;  (** this node's id *)
  off : int array;
      (** CSR offsets: this node's incident edges are the slots
          [off.(me) .. off.(me + 1) - 1] of [adj_eid]/[adj_dst] *)
  adj_eid : int array;
  adj_dst : int array;
  io : 'm io;
}

(** Number of edges incident to this node. *)
val ctx_degree : 'm ctx -> int

(** [ctx_edge ctx i] is the edge id of this node's [i]-th incident
    edge (ascending edge-id order, [0 <= i < ctx_degree ctx]).
    @raise Invalid_argument if [i] is out of range. *)
val ctx_edge : 'm ctx -> int -> int

(** [ctx_iter_neighbors ctx f] applies [f edge_id neighbor] to every
    incident edge in ascending edge-id order — allocation-free, the
    engine-side analogue of [Graph.iter_neighbors]. *)
val ctx_iter_neighbors : 'm ctx -> (int -> int -> unit) -> unit

(** {2 Inbox cursor}

    A step reads the messages delivered to it this round through a
    cursor, newest first (the last message sent to this node comes
    first). The cursor starts before the first message; each
    [ctx_inbox_next] moves it one message on. It is only valid during
    the step it was passed to: do not keep reading it after the step
    returns (in [init] the inbox is empty). Reading a message
    allocates nothing beyond what the payload's type needs (a float
    payload is boxed on read):
    {[
      while Engine.ctx_inbox_next ctx do
        let e = Engine.ctx_inbox_edge ctx in
        ... (Engine.ctx_inbox_payload ctx) ...
      done
    ]} *)

(** Move to the next message; [false] once the inbox is exhausted. *)
val ctx_inbox_next : 'm ctx -> bool

(** Sender of the current message. *)
val ctx_inbox_from : 'm ctx -> int

(** Edge the current message arrived on. *)
val ctx_inbox_edge : 'm ctx -> int

(** Payload of the current message. *)
val ctx_inbox_payload : 'm ctx -> 'm

(** [ctx_send ctx ~via msg] sends [msg] over incident edge [via], for
    delivery next round. The send is checked and charged at once, in
    this order: [via] must be incident, [msg] within the word cap, and
    [via] unused by this node this round (else [Congest_violation]);
    then the tap sees it and the fault plan decides whether it
    arrives. *)
val ctx_send : 'm ctx -> via:int -> 'm -> unit

(** Keep this node active: it is stepped next round even without
    mail. A step that does not call this goes quiescent until a message
    arrives (its state is kept). *)
val ctx_stay_active : 'm ctx -> unit

(** A per-node program, stepped through a {!ctx} cursor.

    [init ctx] gives the initial state and may send the round-0
    messages; every node is active after round 0. [step] is called on
    every round in which the node has incoming messages or stayed
    active; it reads its inbox with the [ctx_inbox_*] cursor, sends
    with {!ctx_send}, calls {!ctx_stay_active} to be stepped again
    next round, and returns the new state.

    [words m] is the size of message [m] in machine words, used for
    model enforcement and traffic statistics. *)
type ('s, 'm) program = {
  name : string;
  words : 'm -> int;
  init : 'm ctx -> 's;
  step : 'm ctx -> round:int -> 's -> 's;
}

(** A message received on [edge] from neighbour [from]: an entry of the
    reference backend's list inbox, and of the inbox {!nested} hands a
    wrapped program. *)
type 'm received = { from : int; edge : int; payload : 'm }

(** [nested ctx ~inbox ~send f] runs [f] (a wrapped program's [init]
    or [step]) on a ctx for the same node as [ctx] but with messages of
    its own type: its cursor reads [inbox] in list order, and each
    {!ctx_send} through it calls [send via msg] instead of the engine,
    so nothing is checked, charged or tapped until the wrapper sends
    for real. Returns [f]'s result and whether [f] called
    {!ctx_stay_active}. This is how {!Reliable.lift} steps the program
    it wraps inside its own step. *)
val nested :
  'c ctx ->
  inbox:'m received list ->
  send:(int -> 'm -> unit) ->
  ('m ctx -> 'a) ->
  'a * bool

(** Per-message callback of a tap ({!with_tap}), called at send time
    (delivery is the following round). Used for debugging protocols,
    for traffic analyses and by {!Telemetry} to count link loads. *)
type observer = round:int -> from:int -> dest:int -> words:int -> unit

(** Per-round callback of a tap ({!with_tap}), called by both backends
    at the end of every executed round with that round's *deltas*:
    messages and words sent, node steps executed, nodes still active
    after the round, and fault-dropped messages. Round 0 is the init
    round (steps 0, active = n). [run] is a sequence number
    distinguishing consecutive engine runs, from 0 at the outermost
    {!with_tap}. The sample stream is part of the backends'
    observational contract: for any program, {!run_fast} and
    {!run_reference} produce identical streams. *)
type round_probe =
  run:int ->
  round:int ->
  messages:int ->
  words:int ->
  steps:int ->
  active:int ->
  drops:int ->
  unit

(** [with_tap ?message ?round f] runs [f ()] with [message] called for
    every message sent and [round] after every round of every engine
    run inside [f] — the one way to watch a run. Taps nest, the inner
    one's callbacks first. Restores the previous tap on exit, also on
    exceptions. With no tap, a run pays one option match per message
    and one per round. *)
val with_tap : ?message:observer -> ?round:round_probe -> (unit -> 'a) -> 'a

(** How a run ended: quiescence, or the [max_rounds] cap. *)
type outcome = Converged | Round_limit

type stats = {
  rounds : int;  (** rounds until quiescence (or the cap) *)
  messages : int;  (** total messages sent (lost ones included) *)
  total_words : int;  (** total message volume in words *)
  max_edge_load : int;  (** max words on one edge-direction in a round *)
  outcome : outcome;  (** whether the run converged or hit [max_rounds] *)
  dropped_messages : int;  (** messages lost to the fault plan *)
  retransmissions : int;  (** resends reported via {!count_retransmission} *)
}

(** [add_stats a b] is the stats of run [a] then run [b]: counts add,
    [max_edge_load] is the larger, and the outcome is [Round_limit] if
    either run hit the cap. *)
val add_stats : stats -> stats -> stats

(** Engine-level performance counters, accumulated across runs.
    [steps] counts node-step invocations; [skipped] counts node-rounds
    the scheduler avoided (quiescent nodes in a live round); [wall] is
    seconds spent inside the engine; [arena_cap] is the peak mailbox
    arena capacity in slots and [arena_grows] the number of growth
    events (0 once the arena reaches steady state). [arena_cap] is a
    maximum, not a sum: a [?perf] record holds the largest arena of
    the runs it accumulated (0 for {!run_reference}, which keeps no
    arena), while {!totals} and every {!totals_since} delta hold the
    largest arena of any run since the process started.
    [dropped_messages]/[retransmissions] separate fault-injected
    losses and protocol resends from clean traffic ([messages] counts
    every send, lost or not). *)
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

val create_perf : unit -> perf

(** [add_perf ~into p] accumulates [p] into [into]. *)
val add_perf : into:perf -> perf -> unit

(** Process-wide cumulative counters over every engine run. Algorithms
    attribute simulator work to a phase by snapshotting before and
    diffing after — no need to thread a [perf] through primitives:
    {[
      let before = Engine.snapshot_totals () in
      ... (* any number of Engine.run calls *)
      Engine.totals_since before
    ]}
    {!Telemetry.span} does exactly this for every instrumented phase. *)
val totals : perf

val snapshot_totals : unit -> perf

(** [totals_since before] is the delta of {!totals} against a
    {!snapshot_totals} snapshot, except [arena_cap]: that is the
    running maximum since process start, so a delta over a small run
    reports the largest arena of any earlier run in the process. *)
val totals_since : perf -> perf

(** Fraction of node-rounds the active-set scheduler skipped.
    Total guarded: 0.0 when nothing was scanned (never [nan]). *)
val skip_ratio : perf -> float

(** Throughput rates. Guarded against zero or sub-resolution [wall]
    (smoke runs can finish inside one clock tick): both return 0.0
    rather than [inf]/[nan] when the denominator is not positive. *)
val rounds_per_sec : perf -> float

val messages_per_sec : perf -> float
val pp_perf : Format.formatter -> perf -> unit

(** [run g p] executes [p] on network [g] until quiescence (no active
    node and no message in flight) or [max_rounds]. A fault plan
    reaches the run only through {!with_faults}.

    @param word_cap maximum words per message (default 4 ≈ a constant
           number of O(log n)-bit words, as in the paper).
    @param max_rounds round cap (default 10 million).
    @param on_round_limit what to do when [max_rounds] is hit without
           quiescence: [`Raise] (default) raises [Congest_violation] —
           a capped run is a bug or an explicit experiment, never a
           silent result — [`Mark] returns normally with
           [stats.outcome = Round_limit].
    @param perf if given, accumulates this run's engine counters.
    @raise Congest_violation on a model violation.
    @return final states (indexed by vertex) and statistics. *)
val run :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?perf:perf ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** The throughput engine (arena mailboxes, generation-stamped cap
    tracking, active-set scheduling). Same observable behaviour as
    {!run_reference}. *)
val run_fast :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?perf:perf ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** The accounting-strict specification engine (per-destination list
    inboxes, hashtable duplicate tracking, full O(n) scan per round).
    Differential baseline: for any program, states, stats and the
    tap's call sequence must be identical to {!run_fast}'s. *)
val run_reference :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?perf:perf ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** [with_faults plan f] runs [f ()] with [plan] as the fault plan of
    every engine run inside [f] — the one way a {!Fault.plan} reaches
    a run. Like {!with_backend}, this lets the chaos harness drive
    whole algorithm families through a plan without touching call
    sites. Restores the previous plan on exit, also on exceptions.

    The plan is applied at delivery time. A doomed message is still
    *sent* — it counts in [messages]/[total_words]/[max_edge_load] and
    reaches the tap (the link was used) — but never reaches its
    destination's inbox; each loss increments [stats.dropped_messages]
    and the plan's per-cause counters. A crash-stopped node executes
    rounds before its crash round normally and is then never stepped
    again. Under a plan, a run's [on_round_limit] defaults to [`Mark]
    (faulty runs legitimately stall), and its [max_rounds] defaults to
    this [max_rounds] when given. {!Fault.begin_run} is called on the
    plan once per run. Both backends apply the plan identically, so
    the differential guarantee extends to faulty executions. *)
val with_faults : ?max_rounds:int -> Fault.plan -> (unit -> 'a) -> 'a

(** Attribute one protocol-level retransmission to the engine run in
    progress (innermost run if nested). Called by {!Reliable.lift}ed
    programs when they resend unacknowledged payloads; shows up as
    [stats.retransmissions] and in [perf]. A no-op outside a run. *)
val count_retransmission : unit -> unit

(** Which implementation {!run} dispatches to (default [Fast]). The
    switch lets the differential checker drive every algorithm in the
    library through either engine without touching call sites. [Par _]
    runs as [Fast]: the engine has no multi-domain rounds, and the
    constructor stays only so that existing matches on [backend] still
    compile. *)
type backend = Fast | Reference | Par of int

val set_backend : backend -> unit
val current_backend : unit -> backend

(** [with_backend b f] runs [f ()] with the backend set to [b],
    restoring the previous backend afterwards (also on exceptions). *)
val with_backend : backend -> (unit -> 'a) -> 'a

val pp_stats : Format.formatter -> stats -> unit
