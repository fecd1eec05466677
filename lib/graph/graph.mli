(** Weighted undirected graphs with stable integer edge ids.

    This is the substrate every algorithm in the library operates on.
    Vertices are [0 .. n-1]; an edge is identified by its index in the
    edge array, so a subgraph (spanner, tree, ...) is just a set of edge
    ids. Weights are strictly positive floats. Parallel edges are
    collapsed to the lightest one and self-loops dropped at construction
    time, matching the paper's simple-graph setting.

    The representation is flat CSR (see DESIGN.md "Graph substrate"):
    int-array offsets plus packed edge-id/neighbor columns and a flat
    weight array. Neighbors are read through {!iter_neighbors} /
    {!fold_neighbors}, which traverse the packed columns without
    allocating. *)

type edge = { u : int; v : int; w : float }

type t

(** [create n edges] builds a graph on [n] vertices. Self-loops are
    dropped, parallel edges are collapsed keeping the minimum weight.
    @raise Invalid_argument on out-of-range endpoints or weights [<= 0]. *)
val create : int -> edge list -> t

(** [of_edge_arrays ~n us vs ws] builds a graph from parallel endpoint
    and weight columns without materializing an [edge] record list:
    edge [i] joins [us.(i)] and [vs.(i)] with weight [ws.(i)]. The
    input arrays are not retained or mutated. [?len] restricts to the
    first [len] entries (default: [Array.length us]). Validation,
    self-loop dropping and parallel-edge collapse match {!create};
    temporary storage is O(len) unboxed words, so this is the
    constructor to use at Graph500 scale. Input whose normalized
    [(u, v)] pairs arrive strictly ascending (a graph's own columns, an
    artifact's stored edge list) is already in edge-id order with no
    parallel edges, so it skips the sort and the dedup scan; the graph
    and the errors are the same either way.
    @raise Invalid_argument as {!create}, with ["Graph.of_edge_arrays"]
    prefixes. *)
val of_edge_arrays :
  n:int -> ?len:int -> int array -> int array -> float array -> t

(** Number of vertices. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** [edge g id] is the edge with identifier [id]. *)
val edge : t -> int -> edge

(** [weight g id] is the weight of edge [id]. *)
val weight : t -> int -> float

(** [endpoints g id] is [(u, v)] with [u < v]. *)
val endpoints : t -> int -> int * int

(** [other_end g id x] is the endpoint of edge [id] different from [x].
    @raise Invalid_argument if [x] is not an endpoint of [id]. *)
val other_end : t -> int -> int -> int

(** [degree g v] is the number of edges incident to [v]. *)
val degree : t -> int -> int

(** [iter_neighbors g v f] applies [f edge_id neighbor] to every edge
    incident to [v], in ascending edge-id order. Traverses the packed
    CSR columns directly —
    no allocation, no closure per element beyond [f] itself. *)
val iter_neighbors : t -> int -> (int -> int -> unit) -> unit

(** [fold_neighbors g v f acc] folds [f acc edge_id neighbor] over the
    edges incident to [v] in ascending edge-id order, without
    allocating intermediate tuples. *)
val fold_neighbors : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** The physical CSR columns, for hot loops where even the closure
    call of {!iter_neighbors} is measurable (Dijkstra, BFS kernels).
    Vertex [v]'s incidences are
    [off.(v) .. off.(v+1)-1] into [adj_eid]/[adj_dst]; [ew.(id)] is
    edge [id]'s weight; [eu.(id)]/[ev.(id)] are edge [id]'s endpoints
    (normalized [eu.(id) < ev.(id)]) — the column form of
    {!endpoints}, for loops that resolve the far end of an edge id
    without allocating a tuple per call (the CONGEST engine's message
    delivery). The arrays are the graph's own storage, shared not
    copied: treat them as read-only. *)
type view = private {
  off : int array;
  adj_eid : int array;
  adj_dst : int array;
  eu : int array;
  ev : int array;
  ew : float array;
}

val view : t -> view

(** [iter_edges g f] applies [f id edge] to every edge. *)
val iter_edges : t -> (int -> edge -> unit) -> unit

(** [fold_edges g f acc] folds [f] over all [(id, edge)]. *)
val fold_edges : t -> (int -> edge -> 'a -> 'a) -> 'a -> 'a

(** [find_edge g u v] is [Some id] if there is an edge between [u] and
    [v], else [None]. O(min degree). *)
val find_edge : t -> int -> int -> int option

(** Total weight of all edges. *)
val total_weight : t -> float

(** [weight_of_edges g ids] is the summed weight of the listed edges. *)
val weight_of_edges : t -> int list -> float

(** [subgraph g ids] is the graph on the same vertex set whose edges are
    exactly [ids] (with fresh edge ids); [original_id] maps them back. *)
val subgraph : t -> int list -> t * (int -> int)

(** [is_connected g] is [true] iff [g] has a single connected component
    (the empty graph and the 1-vertex graph are connected). *)
val is_connected : t -> bool

(** [components g] assigns each vertex a component index in
    [0 .. c-1]; returns [(c, comp array)]. *)
val components : t -> int * int array

(** [hop_diameter g] is the diameter of the underlying unweighted graph
    (the paper's [D]). @raise Invalid_argument if [g] is disconnected. *)
val hop_diameter : t -> int

(** Largest edge weight divided by smallest (aspect ratio of weights);
    [1.0] for the edgeless graph. *)
val weight_aspect_ratio : t -> float

(** [compare_edges g a b] orders edge ids by [(weight, id)] — the
    tie-break every MST implementation in this library uses, making the
    MST unique and letting independent constructions agree exactly. *)
val compare_edges : t -> int -> int -> int

(** Pretty-printer for debugging ([n], [m], weight range). *)
val pp : Format.formatter -> t -> unit
