(** Rooted spanning trees (and rooted subtrees) of a host graph.

    A tree is described by a set of edge ids of the host graph plus a
    root; orientation, children lists (sorted by vertex id, the order
    the paper fixes for DFS traversals), depths and distances are
    precomputed. The orientation is one parent column per tree, read in
    place through {!view}: a caller that needs a vertex's parent or
    parent edge indexes it rather than building a column of its own. *)

type t

(** [of_edges g ~root ids] roots the forest edge set [ids] at [root].
    Only the component containing [root] is retained in depth/children
    data; use {!covers_all} to check spanning-ness.
    @raise Invalid_argument if [ids] contains a cycle. *)
val of_edges : Graph.t -> root:int -> int list -> t

val host : t -> Graph.t
val root : t -> int

(** The tree's parent columns: [parent.(v)] is [v]'s parent vertex and
    [parent_edge.(v)] the host edge id to it, both [-1] at the root and
    outside the root's component. Read a column in place, as
    {!Graph.view} reads the CSR: the arrays are the tree's own storage,
    shared not copied, so treat them as read-only. *)
type view = private { parent : int array; parent_edge : int array }

val view : t -> view

(** Children of [v], sorted by vertex id. *)
val children : t -> int -> int list

val covers_all : t -> bool

(** Hop depth of [v] (0 at root). [-1] outside the tree. *)
val depth_hops : t -> int -> int

(** Weighted distance from the root to [v] along tree edges. *)
val dist_to_root : t -> int -> float

(** Weighted tree distance between two vertices (via their LCA). *)
val dist : t -> int -> int -> float

(** Tree edge ids (in the host graph's id space). *)
val edges : t -> int list

(** Total weight of the tree. *)
val weight : t -> float

(** Maximum hop depth (the tree's height). *)
val height_hops : t -> int
