(** Tree distance labels from an Euler tour.

    Built once from a spanning tree (the SLT of an artifact), the label
    table answers, with no Dijkstra and no graph traversal at query
    time:

    - LCA in O(1), via sparse-table RMQ ({!Rmq}) over the tour's
      hop-depth sequence;
    - exact weighted tree distance in O(1), as
      [droot u + droot v - 2 droot (lca u v)] over the prefix sums of
      edge weights to the root.

    Per-vertex state (first tour position, weighted depth) is O(1)
    words — the per-vertex labels of the serving layer's label tier;
    the shared RMQ index adds O(n log n) once per tree. *)

type t

(** [build tree] labels a spanning tree of its host graph.
    @raise Invalid_argument if [tree] does not cover every vertex. *)
val build : Ln_graph.Tree.t -> t

(** [check tree] raises what {!build} raises for a tree it cannot
    label, without labelling it. *)
val check : Ln_graph.Tree.t -> unit

val lca : t -> int -> int -> int

(** Exact weighted distance between [u] and [v] along the tree. *)
val dist : t -> int -> int -> float
