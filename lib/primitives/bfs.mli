(** Distributed BFS-tree construction (the tree [τ] every global
    communication pattern in the paper is pipelined over).

    A flood from the root; each node adopts the first sender as parent
    (ties broken towards the smaller vertex id, deterministically).
    Completes in [D + O(1)] rounds. *)

(** [tree g ~root] runs the flood on the engine and returns the rooted
    BFS tree together with engine statistics. *)
val tree :
  Ln_graph.Graph.t -> root:int -> Ln_graph.Tree.t * Ln_congest.Engine.stats

(** Per-node state of the relaxing variant (exposed so chaos tests and
    {!Ln_congest.Monitor} can inspect claimed distances). *)
type state = { dist : int; parent_edge : int }

(** An offer: the sender's distance. Unboxed, so a [Join] costs no
    allocation. *)
type msg = Join of int [@@unboxed]

(** Bellman-Ford-style BFS: keep the lexicographically smallest
    [(dist, parent_edge)], re-announce on improvement. Unlike the
    adopt-first flood — whose correctness *needs* lockstep delivery —
    its fixpoint is independent of message timing, so it stays correct
    under the delays introduced by {!Ln_congest.Reliable.lift}. A step
    reads its whole inbox and, on an improvement, sends one [Join] over
    every incident edge. *)
val relaxing_program : root:int -> (state, msg) Ln_congest.Engine.program

(** [layers g ~root] runs {!relaxing_program} raw (under a
    {!Ln_congest.Engine.with_faults} plan, lost messages may leave
    wrong or [-1] distances) and returns the per-node hop distances. *)
val layers : Ln_graph.Graph.t -> root:int -> int array * Ln_congest.Engine.stats

(** [layers_reliable g ~root] — the same program under
    {!Ln_congest.Reliable.lift}: on a lossy network (drop-prob [< 1],
    retries not exhausted) it converges to the exact fault-free
    layers, at a measured cost in rounds and retransmissions. *)
val layers_reliable :
  ?max_retries:int ->
  Ln_graph.Graph.t ->
  root:int ->
  int array * Ln_congest.Engine.stats
