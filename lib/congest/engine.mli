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
    local view ({!ctx}): a node knows [n], its own id, its incident
    edges and their weights, and nothing else.

    Three observationally identical execution paths exist (see
    DESIGN.md, "Engine internals" and "Parallel engine"): {!run_fast},
    the default — arena mailboxes, generation-stamped cap tracking and
    an active-set scheduler — {!run_par}, which shards the node-step
    phase of every round across OCaml 5 domains with a deterministic
    sequential merge, and {!run_reference}, the simple list-based
    specification engine kept as the differential-testing baseline.
    {!run} dispatches on the process-wide {!backend}. *)

exception Congest_violation of string

(** Local view available to a node's program: [n], this node's id
    [me], its incident edges (via the [ctx_*] accessors below) and
    their weights.

    The record is a {e cursor}: the engine keeps one per run (not one
    per node) and repoints [me] before each [init]/[step] call. It
    aliases the graph's CSR columns, so the per-node neighbor view
    costs no resident memory at all — the accessors index the shared
    columns directly. Consequences for programs: the ctx is only valid
    for the duration of the [init]/[step] call it was passed to (do
    not store it in the node state or a closure that outlives the
    call), and all fields are read-only ([private] — construction and
    the [me] cursor belong to the engine). *)
type ctx = private {
  n : int;  (** number of vertices in the network *)
  mutable me : int;  (** this node's id *)
  weight : int -> float;  (** weight of an incident edge *)
  off : int array;
  adj_eid : int array;
  adj_dst : int array;
}

(** Number of edges incident to this node. *)
val ctx_degree : ctx -> int

(** [ctx_edge ctx i] is the edge id of this node's [i]-th incident
    edge (ascending edge-id order, [0 <= i < ctx_degree ctx]).
    @raise Invalid_argument if [i] is out of range. *)
val ctx_edge : ctx -> int -> int

(** [ctx_peer ctx i] is the neighbor at the other end of the [i]-th
    incident edge. @raise Invalid_argument if [i] is out of range. *)
val ctx_peer : ctx -> int -> int

(** [ctx_iter_neighbors ctx f] applies [f edge_id neighbor] to every
    incident edge in ascending edge-id order — allocation-free, the
    engine-side analogue of [Graph.iter_neighbors]. *)
val ctx_iter_neighbors : ctx -> (int -> int -> unit) -> unit

(** [ctx_fold_neighbors ctx f acc] folds [f acc edge_id neighbor] over
    the incident edges in ascending edge-id order. The idiomatic way
    to build a send list in order:
    [List.rev (ctx_fold_neighbors ctx (fun acc e _ -> {via=e; msg} :: acc) [])]. *)
val ctx_fold_neighbors : ctx -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** A message received on [edge] from neighbour [from]. *)
type 'm received = { from : int; edge : int; payload : 'm }

(** A message to send over incident edge [via]. *)
type 'm send = { via : int; msg : 'm }

(** A per-node program.

    [init ctx] gives the initial state and round-0 sends. [step] is
    called on every round in which the node has incoming messages or
    declared itself active; it returns the new state, outgoing
    messages, and whether the node remains active (an inactive node is
    not stepped again until a message arrives — state is kept).

    [words m] is the size of message [m] in machine words, used for
    model enforcement and traffic statistics. *)
type ('s, 'm) program = {
  name : string;
  words : 'm -> int;
  init : ctx -> 's * 'm send list;
  step : ctx -> round:int -> 's -> 'm received list -> 's * 'm send list * bool;
}

(** Optional per-message observer, called at send time (delivery is
    the following round). Used for debugging protocols and for traffic
    analyses; see {!val:run}. *)
type observer = round:int -> from:int -> dest:int -> words:int -> unit

(** Per-round telemetry sample, called by both backends at the end of
    every executed round with that round's *deltas*: messages and
    words sent, node steps executed, nodes still active after the
    round, and fault-dropped messages. Round 0 is the init round
    (steps 0, active = n). [run] is a sequence number distinguishing
    consecutive engine runs (reset by {!set_round_probe}). The
    sample stream is part of the backends' observational contract:
    for any program, {!run_fast} and {!run_reference} produce
    identical streams. *)
type round_probe =
  run:int ->
  round:int ->
  messages:int ->
  words:int ->
  steps:int ->
  active:int ->
  drops:int ->
  unit

(** Install (or clear) the process-ambient round probe. Installing
    resets the run sequence number. When unset the per-round cost is
    one [ref] read — telemetry is free when disabled. Used by
    {!Telemetry}; prefer {!Telemetry.record} over calling this
    directly. *)
val set_round_probe : round_probe option -> unit

(** Install (or clear) a process-ambient message observer, called for
    every message of every run *in addition to* any per-run
    [?observer]. Resolved once per run: zero per-message cost when
    unset. Used by {!Telemetry} to aggregate link loads. *)
val set_ambient_observer : observer option -> unit

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

(** Engine-level performance counters, accumulated across runs.
    [steps] counts node-step invocations; [skipped] counts node-rounds
    the scheduler avoided (quiescent nodes in a live round); [wall] is
    seconds spent inside the engine; [arena_cap] is the peak mailbox
    arena capacity in slots and [arena_grows] the number of growth
    events (0 once the arena reaches steady state).
    [dropped_messages]/[retransmissions] separate fault-injected
    losses and protocol resends from clean traffic ([messages] counts
    every send, lost or not). [domains] is the maximum domain count
    any contributing run executed with (1 for the sequential backends,
    0 if no run contributed); [barrier_wall] is seconds the {!run_par}
    main domain spent waiting on the end-of-step-phase barrier —
    [barrier_wall / wall] close to 1 means the shards are imbalanced
    or the machine has fewer cores than domains. *)
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
  mutable domains : int;
  mutable barrier_wall : float;
}

val create_perf : unit -> perf
val copy_perf : perf -> perf

(** [add_perf ~into p] accumulates [p] into [into]. *)
val add_perf : into:perf -> perf -> unit

(** Process-wide cumulative counters over every engine run. Algorithms
    attribute simulator work to a phase by snapshotting before and
    diffing after — no need to thread a [perf] through primitives:
    {[
      let before = Engine.snapshot_totals () in
      ... (* any number of Engine.run calls *)
      Ledger.attach_perf ledger (Engine.totals_since before)
    ]} *)
val totals : perf

val snapshot_totals : unit -> perf

(** [totals_since before] is the delta of {!totals} against a
    {!snapshot_totals} snapshot. *)
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
    node and no message in flight) or [max_rounds].

    @param word_cap maximum words per message (default 4 ≈ a constant
           number of O(log n)-bit words, as in the paper).
    @param max_rounds round cap (default 10 million).
    @param on_round_limit what to do when [max_rounds] is hit without
           quiescence: [`Raise] (default) raises [Congest_violation] —
           a capped run is a bug or an explicit experiment, never a
           silent result — [`Mark] returns normally with
           [stats.outcome = Round_limit].
    @param observer called once per message sent.
    @param perf if given, accumulates this run's engine counters.
    @param faults a deterministic chaos plan ({!Fault.plan}) applied at
           delivery time. A doomed message is still *sent* — it counts
           in [messages]/[total_words]/[max_edge_load] and triggers the
           observer (the link was used) — but never reaches its
           destination's inbox; each loss increments
           [stats.dropped_messages] and the plan's per-cause counters.
           A crash-stopped node executes rounds before its crash round
           normally and is then never stepped again. When a plan is
           given, [on_round_limit] defaults to [`Mark] (faulty runs
           legitimately stall) and [Fault.begin_run] is called on the
           plan. Both backends apply the plan identically, so the
           differential guarantee extends to faulty executions.
    @raise Congest_violation on a model violation.
    @return final states (indexed by vertex) and statistics. *)
val run :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?observer:observer ->
  ?perf:perf ->
  ?faults:Fault.plan ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** The throughput engine (arena mailboxes, generation-stamped cap
    tracking, active-set scheduling). Same signature and observable
    behaviour as {!run_reference}. *)
val run_fast :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?observer:observer ->
  ?perf:perf ->
  ?faults:Fault.plan ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** The multicore engine: nodes are sharded into [domains] contiguous
    blocks, each round's node-step phase runs in parallel (one OCaml 5
    domain per block, the calling domain takes block 0), and the
    buffered outboxes are then merged sequentially in ascending node
    order through the exact delivery logic of {!run_fast} — so states,
    stats, [Congest_violation] attribution, observer call sequence,
    fault accounting and the round-probe stream are byte-identical to
    {!run_fast} for {i every} domain count. See DESIGN.md "Parallel
    engine" for the sharding layout, barrier protocol and determinism
    argument. [domains] below 1 is [Invalid_argument]; counts above
    the node count are clamped. One divergence: if a [step] raises, the
    other nodes of that round may already have stepped before the
    exception (of the lowest raising node) is re-raised, whereas the
    sequential backends stop mid-round — states are discarded either
    way, but programs with external side effects can observe the extra
    steps. Worker domains are spawned per run and joined on every exit
    path. Per-domain peak arena sizes are exposed via
    {!par_arena_peaks}. *)
val run_par :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?observer:observer ->
  ?perf:perf ->
  ?faults:Fault.plan ->
  domains:int ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** Per-domain peak mailbox-arena capacities (in slots, both buffers)
    of the most recent {!run_par} in this process, indexed by domain.
    [[||]] before any parallel run. Recorded by the CLI into ledger
    notes so parallel traces attribute arena memory per shard. *)
val par_arena_peaks : unit -> int array

(** The accounting-strict specification engine (per-destination list
    inboxes, hashtable duplicate tracking, full O(n) scan per round).
    Differential baseline: for any program, states, stats and the
    observer call sequence must be identical to {!run_fast}'s. *)
val run_reference :
  ?word_cap:int ->
  ?max_rounds:int ->
  ?on_round_limit:[ `Raise | `Mark ] ->
  ?observer:observer ->
  ?perf:perf ->
  ?faults:Fault.plan ->
  Ln_graph.Graph.t ->
  ('s, 'm) program ->
  's array * stats

(** [with_faults plan f] runs [f ()] with [plan] as the ambient fault
    plan: every {!run} inside [f] that is not given an explicit
    [?faults] uses [plan] (and, if [max_rounds] is given, that round
    cap with [`Mark]). Like {!with_backend}, this lets the chaos
    harness drive whole algorithm families through a fault plan
    without touching call sites. Restores the previous ambient plan on
    exit, also on exceptions. *)
val with_faults : ?max_rounds:int -> Fault.plan -> (unit -> 'a) -> 'a

(** Attribute one protocol-level retransmission to the engine run in
    progress (innermost run if nested). Called by {!Reliable.lift}ed
    programs when they resend unacknowledged payloads; shows up as
    [stats.retransmissions] and in [perf]. A no-op outside a run. *)
val count_retransmission : unit -> unit

(** Which implementation {!run} dispatches to (default [Fast]).
    [Par d] dispatches to {!run_par} with [d] domains. The switch lets
    the differential checker (and the CLI's [--domains] flag) drive
    every algorithm in the library through any path without touching
    call sites. *)
type backend = Fast | Reference | Par of int

val set_backend : backend -> unit
val current_backend : unit -> backend

(** [with_backend b f] runs [f ()] with the backend set to [b],
    restoring the previous backend afterwards (also on exceptions). *)
val with_backend : backend -> (unit -> 'a) -> 'a

val pp_stats : Format.formatter -> stats -> unit
