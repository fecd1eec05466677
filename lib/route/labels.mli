(** Tree routing and distance labels from an Euler tour.

    Built once from a spanning tree (the SLT or the MST of an
    artifact), the label table answers, with no Dijkstra and no graph
    traversal at query time:

    - ancestor tests in O(1), from DFS (tour) interval containment;
    - LCA in O(1), via sparse-table RMQ ({!Rmq}) over the tour's
      hop-depth sequence;
    - exact weighted tree distance in O(1), as
      [droot u + droot v - 2 droot (lca u v)] over the prefix sums of
      edge weights to the root;
    - next-hop routing in O(log deg): towards a descendant, binary
      search over the children's tour intervals; otherwise the parent.

    Per-vertex state (interval endpoints, depth, weighted depth,
    parent) is O(1) words — the per-vertex labels of the serving
    layer; the shared RMQ index adds O(n log n) once per tree. *)

type t

(** [build tree] labels a spanning tree of its host graph.
    @raise Invalid_argument if [tree] does not cover every vertex. *)
val build : Ln_graph.Tree.t -> t

(** [check tree] raises what {!build} raises for a tree it cannot
    label, without labelling it. *)
val check : Ln_graph.Tree.t -> unit

val root : t -> int

(** [is_ancestor t a v] — is [a] an ancestor of [v] (reflexively)? *)
val is_ancestor : t -> int -> int -> bool

val lca : t -> int -> int -> int

(** Exact weighted distance between [u] and [v] along the tree. *)
val dist : t -> int -> int -> float

val dist_hops : t -> int -> int -> int

(** [next_hop t ~src ~dst] is the neighbour of [src] on the tree path
    to [dst], or [None] when [src = dst]. *)
val next_hop : t -> src:int -> dst:int -> int option

(** The full tree path from [src] to [dst], both endpoints included,
    assembled by repeated {!next_hop}. *)
val route : t -> src:int -> dst:int -> int list
