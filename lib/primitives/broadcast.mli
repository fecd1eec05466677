(** Pipelined all-to-all broadcast over a rooted tree — Lemma 1 of the
    paper: if every vertex [v] holds [m_v] messages of O(1) words with
    [M = Σ m_v] total, all vertices receive all messages within
    [O(M + D)] rounds.

    Implemented natively on the engine as an upcast of every item to
    the root (one item per tree edge per round, with per-subtree
    completion detection) followed by a pipelined downcast. A message
    is an int: the id of an item in a per-call table of every item, or
    -1, the done marker that closes a subtree's upcast or the root's
    downcast. The tree edge it arrives on tells whether it travels up
    or down. An item's message counts [words item] words and a marker
    1. A vertex holds its state in flat int arrays (an up FIFO as long
    as its subtree's item count), so relaying an item allocates
    nothing.

    {b Order.} The root's arrival order is its own items in the order
    given, then every other item in the order it reached the root
    (items arriving in one round in the engine's inbox order, newest
    first). Every vertex receives the downcast in that order.
    {b Sharing.} Every vertex that received the whole downcast gets the
    root's list itself: the result lists are one shared value, not
    copies. Under a fault plan, a vertex that lost down items, or whose
    run stopped at the round cap before the downcast ended, gets a list
    of its own: what it received, in the root's order. A vertex outside
    the tree (no parent, not the root) acts as the root of its own
    one-vertex tree. *)

(** [all_to_all g ~tree ~items] returns per-vertex the list of all
    items in the network, in the root's arrival order, and engine
    stats; a vertex outside the tree gets its own items. An item's
    message counts [words item] machine words (default 2, i.e. a
    constant number of O(log n)-bit words), which must fit the word
    cap. *)
val all_to_all :
  ?word_cap:int ->
  ?words:('a -> int) ->
  Ln_graph.Graph.t ->
  tree:Ln_graph.Tree.t ->
  items:'a list array ->
  'a list array * Ln_congest.Engine.stats

(** [gather g ~tree ~items] — only the upcast: the root ends up with
    all items, in its arrival order; every other vertex gets []. Cheaper
    when only the root needs the data (e.g. break-point filtering in
    Section 4). *)
val gather :
  ?word_cap:int ->
  ?words:('a -> int) ->
  Ln_graph.Graph.t ->
  tree:Ln_graph.Tree.t ->
  items:'a list array ->
  'a list array * Ln_congest.Engine.stats

(** [downcast g ~tree ~items] — only the downcast: the root's items are
    delivered to every vertex of the tree, in the order given (a vertex
    outside the tree gets []). *)
val downcast :
  ?word_cap:int ->
  ?words:('a -> int) ->
  Ln_graph.Graph.t ->
  tree:Ln_graph.Tree.t ->
  items:'a list ->
  'a list array * Ln_congest.Engine.stats

(** {2 Single-value flood}

    The minimal broadcast, used by the chaos harness and the CLI:
    [root] floods one integer to everyone. *)

(** Unboxed, so a [Value] costs no allocation. *)
type flood_msg = Value of int [@@unboxed]

(** Forward-once flood program; a node's state is the value it holds
    ([None] until reached). A node adopts the newest message of the
    first round that brings one and forwards [value] over every other
    incident edge. Timing-independent, so it lifts through
    {!Ln_congest.Reliable.lift} unchanged. *)
val flood_program :
  root:int -> value:int -> (int option, flood_msg) Ln_congest.Engine.program

(** [flood g ~root ~value] runs the raw flood; under a
    {!Ln_congest.Engine.with_faults} plan, nodes beyond a dropped
    message never receive the value. *)
val flood :
  Ln_graph.Graph.t ->
  root:int ->
  value:int ->
  int option array * Ln_congest.Engine.stats

(** Same flood under the ARQ combinator: every node connected to the
    root by surviving links receives the value despite drops. *)
val flood_reliable :
  ?max_retries:int ->
  Ln_graph.Graph.t ->
  root:int ->
  value:int ->
  int option array * Ln_congest.Engine.stats
