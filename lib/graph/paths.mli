(** Sequential shortest-path computations.

    These serve as the ground truth for verifying the distributed
    algorithms (exact stretch checks and the serving tiers' answers)
    and as building blocks for sequential baselines (greedy spanner,
    KRY95 SLT, LE lists). The serving tiers do not run them: the
    oracle has its own distance-only kernel on its own index of the
    spanner ({!Ln_route.Oracle}).

    {!dijkstra} and {!dijkstra_multi} share one loop, which returns
    shortest-path trees: its lazy-deletion heap pops equal distances in
    a fixed order, and the parent edges depend on that order. Its heap
    and settled marks are scratch that only grows, so a warm call
    allocates the arrays it returns plus one boxed float per heap push.
    A call nested inside an [edge_ok] gets fresh scratch. The scratch
    belongs to the one domain that runs the program. *)

(** Result of a single-source computation: [dist.(v)] is the shortest
    distance from the source ([infinity] if unreachable), and
    [parent_edge.(v)] is the edge id towards the source on a shortest
    path ([-1] for the source itself and unreachable vertices). *)
type sssp = { dist : float array; parent_edge : int array }

(** [dijkstra g src] is the exact single-source shortest paths from
    [src].
    @param bound  stop expanding beyond this distance; entries past the
                  bound are [infinity]. Default: unbounded.
    @param edge_ok  consider only edges for which this predicate holds
                    (used to restrict to a subgraph). Default: all. It
                    is asked only about edges into unsettled vertices,
                    so it should be pure. *)
val dijkstra : ?bound:float -> ?edge_ok:(int -> bool) -> Graph.t -> int -> sssp

(** [dijkstra_multi g srcs] runs Dijkstra from a virtual super-source
    connected with weight 0 to each of [srcs]: [dist.(v)] is the
    distance to the nearest source and [source.(v)] that source's id
    ([-1] when unreachable). *)
val dijkstra_multi :
  ?bound:float ->
  ?edge_ok:(int -> bool) ->
  Graph.t ->
  int list ->
  sssp * int array

(** [path_to sssp g v] reconstructs the vertex path from the source to
    [v] (inclusive) from parent pointers; [None] if unreachable. *)
val path_to : sssp -> Graph.t -> int -> int list option

(** [bfs_hops g src] is the hop distance (unweighted) from [src];
    [-1] for unreachable vertices. *)
val bfs_hops : Graph.t -> int -> int array

(** [all_pairs g] runs Dijkstra from every vertex; [O(n m log n)].
    Intended for test-scale graphs only. *)
val all_pairs : ?edge_ok:(int -> bool) -> Graph.t -> float array array
