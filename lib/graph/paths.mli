(** Sequential shortest-path computations.

    These serve as the ground truth for verifying the distributed
    algorithms (exact stretch checks), as building blocks for
    sequential baselines (greedy spanner, KRY95 SLT, LE lists) and as
    the per-query kernel of the serving tiers.

    {!dijkstra}, {!dijkstra_multi} and {!dist_into} share one loop.
    Its heap and settled marks are per-domain scratch that only grows,
    so a warm call allocates only the arrays it returns ({!dist_into}
    none at all), and calls on different domains never share state. A
    call nested inside an [edge_ok] gets fresh scratch. *)

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

(** [dist_into g src dist] writes the distances {!dijkstra} would
    return from [src] into [dist], without parent edges.
    @raise Invalid_argument if [Array.length dist <> Graph.n g]. *)
val dist_into : ?edge_ok:(int -> bool) -> Graph.t -> int -> float array -> unit

(** [distance g u v] is the exact [d_G(u, v)]. *)
val distance : ?edge_ok:(int -> bool) -> Graph.t -> int -> int -> float

(** [path_to sssp g v] reconstructs the vertex path from the source to
    [v] (inclusive) from parent pointers; [None] if unreachable. *)
val path_to : sssp -> Graph.t -> int -> int list option

(** [bfs_hops g src] is the hop distance (unweighted) from [src];
    [-1] for unreachable vertices. *)
val bfs_hops : Graph.t -> int -> int array

(** [eccentricity_hops g v] is the maximum hop distance from [v]. *)
val eccentricity_hops : Graph.t -> int -> int

(** [all_pairs g] runs Dijkstra from every vertex; [O(n m log n)].
    Intended for test-scale graphs only. *)
val all_pairs : ?edge_ok:(int -> bool) -> Graph.t -> float array array
