(** Rooted spanning trees (and rooted subtrees) of a host graph.

    A tree is described by a set of edge ids of the host graph plus a
    root; orientation, children lists (sorted by vertex id, the order
    the paper fixes for DFS traversals), depths and distances are
    precomputed. *)

type t

(** [of_edges g ~root ids] roots the forest edge set [ids] at [root].
    Only the component containing [root] is retained in depth/children
    data; use {!covers_all} to check spanning-ness.
    @raise Invalid_argument if [ids] contains a cycle. *)
val of_edges : Graph.t -> root:int -> int list -> t

val host : t -> Graph.t
val root : t -> int

(** [parent t v] is [Some (parent_vertex, edge_id)], [None] at the root
    and for vertices outside the root's component. *)
val parent : t -> int -> (int * int) option

(** Children of [v], sorted by vertex id. *)
val children : t -> int -> int list

(** [in_tree t v] is [true] iff [v] is in the root's component. *)
val in_tree : t -> int -> bool

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

(** Number of vertices in the root's component. *)
val size : t -> int

(** Vertices of the root's component in preorder (children by id). *)
val preorder : t -> int list
