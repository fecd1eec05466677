(** Deterministic fault injection for the CONGEST engine.

    A {!plan} is a seed-replayable description of the chaos applied to
    a run: per-message random drops, link failures over round windows,
    and node crashes — crash-stop, or crash-*recovery* over a round
    window. The engine consults the plan at delivery time (see
    {!Engine.with_faults}); both engine backends apply it identically
    (the crash predicate {!crashed} is their single point of truth),
    so the differential-testing guarantee extends to faulty
    executions, including crash-recovery schedules.

    Determinism: the random-drop coin for a message is a pure hash of
    [(seed, run, round, edge, direction)] — no hidden [Random] state —
    so a plan replays the exact same fault schedule on the exact same
    program, regardless of backend or of the order in which messages
    are delivered inside a round. Each engine run advances the plan's
    run counter (so consecutive runs of a multi-phase algorithm see
    independent drop patterns); call {!reset} to replay a plan from
    its initial state. *)

(** Why a message was lost. *)
type cause =
  | Random_drop  (** the per-message drop coin *)
  | Link_down  (** a scheduled link failure window covered the send *)
  | Crash  (** the sender or the receiver was down (crashed) *)

(** A link failure: edge [edge] is down for sends in rounds
    [from_round <= r < until_round]; [None] means permanent. *)
type link_failure = { edge : int; from_round : int; until_round : int option }

(** A node crash: [node] is down for rounds
    [crash_round <= r < recover_round]. [recover_round = None] is
    classic crash-stop (the node halts forever). With
    [recover_round = Some r] the node *recovers* at round [r]: its
    pre-crash state is intact (durable memory), but every message
    addressed to it while down was lost, it was never stepped, and it
    sent nothing. A recovered node is woken by the next message that
    reaches it — it does not resume sending spontaneously (its
    engine-level activity flag was cleared by the crash). *)
type crash = { node : int; crash_round : int; recover_round : int option }

(** Per-cause drop counters for the last engine run under the plan. *)
type counts = { random_drops : int; link_drops : int; crash_drops : int }

val total : counts -> int

type plan

(** [make ~seed ()] builds a plan, validating the schedule eagerly: a
    malformed entry raises [Invalid_argument] with a pinned message
    naming the offending id and window instead of silently compiling
    to a dead window. Rejected: [drop_prob] outside [[0, 1)], negative
    ids or rounds, empty link windows ([until_round <= from_round]),
    empty crash windows ([recover_round <= crash_round]), more than
    one crash entry for the same node, and — when [?graph] is given —
    edge ids [>= m] or node ids [>= n].

    @param drop_prob per-message drop probability (default 0; must be
           in [[0, 1)]).
    @param drop_until rounds [>= drop_until] are exempt from random
           drops (default: never exempt). Bounding the chaos window
           guarantees protocols eventually see a clean network.
    @param link_failures scheduled link-failure windows.
    @param crashes node crashes, at most one per node. A crash-stop
           ([recover_round = None]) node executes rounds
           [< crash_round] normally and then halts — it is never
           stepped again, sends nothing and everything addressed to it
           is dropped. [crash_round = 0] suppresses even its initial
           sends.
    @param graph when provided, edge and node ids are range-checked
           against it. *)
val make :
  ?drop_prob:float ->
  ?drop_until:int ->
  ?link_failures:link_failure list ->
  ?crashes:crash list ->
  ?graph:Ln_graph.Graph.t ->
  seed:int ->
  unit ->
  plan

val seed : plan -> int

(** {2 Engine-facing hooks} *)

(** [begin_run p] is called by the engine at the start of each run: it
    advances the run counter (decorrelating drop coins across runs)
    and clears the per-run {!counts}. *)
val begin_run : plan -> unit

(** [reset p] rewinds the run counter and counters, so the next run
    replays the plan's very first fault schedule. Used when driving
    the same plan through both engine backends. *)
val reset : plan -> unit

(** [crashed p ~node ~round] — is [node] down at [round]? True inside
    a crash window, false again from its [recover_round] on. *)
val crashed : plan -> node:int -> round:int -> bool

(** [fate p ~sender ~dest ~edge ~round] decides whether a message sent
    over [edge] in [round] (delivered in [round + 1]) is lost, and
    why. Pure in the plan's current run counter. A message sent the
    round before the destination recovers is delivered. *)
val fate :
  plan -> sender:int -> dest:int -> edge:int -> round:int -> cause option

(** [record p c] increments the per-run counter for cause [c]; called
    by the engine for each message it drops. *)
val record : plan -> cause -> unit

(** Drop counters for the current (last) run. *)
val counts : plan -> counts

(** {2 Post-run analysis} *)

(** [surviving_node p v] — [v] has no *permanent* crash under [p]
    (crash-recovery windows heal, so the node survives and certifiers
    hold it to the same standard as an untouched node). *)
val surviving_node : plan -> int -> bool

(** [surviving_edge p e] — [e] has no permanent failure under [p]
    (transient windows heal, so the edge survives). *)
val surviving_edge : plan -> int -> bool

(** A compact, replayable one-line description of the plan
    (seed, drop probability, failure/crash schedules). *)
val describe : plan -> string
