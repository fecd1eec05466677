(** Pipelined all-to-all broadcast over a rooted tree — Lemma 1 of the
    paper: if every vertex [v] holds [m_v] messages of O(1) words with
    [M = Σ m_v] total, all vertices receive all messages within
    [O(M + D)] rounds.

    Implemented natively on the engine as an upcast of every item to
    the root (one item per tree edge per round, with per-subtree
    completion detection) followed by a pipelined downcast. *)

(** [all_to_all g ~tree ~items] returns per-vertex the list of all
    items in the network (in unspecified order) and engine stats.
    Items must fit in [words] machine words each (default 2, i.e. a
    constant number of O(log n)-bit words; the engine's default cap
    accommodates the one-word protocol overhead). *)
val all_to_all :
  ?word_cap:int ->
  ?words:('a -> int) ->
  Ln_graph.Graph.t ->
  tree:Ln_graph.Tree.t ->
  items:'a list array ->
  'a list array * Ln_congest.Engine.stats

(** [gather g ~tree ~items] — only the upcast: the root ends up with
    all items; other vertices get []. Cheaper when only the root needs
    the data (e.g. break-point filtering in Section 4). *)
val gather :
  ?word_cap:int ->
  ?words:('a -> int) ->
  Ln_graph.Graph.t ->
  tree:Ln_graph.Tree.t ->
  items:'a list array ->
  'a list array * Ln_congest.Engine.stats

(** [downcast g ~tree ~items] — only the downcast: the root's items are
    delivered to every vertex. *)
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

type flood_msg = Value of int

(** Forward-once flood program; a node's state is the value it holds
    ([None] until reached). Timing-independent, so it lifts through
    {!Ln_congest.Reliable.lift} unchanged. *)
val flood_program :
  root:int -> value:int -> (int option, flood_msg) Ln_congest.Engine.list_program

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
