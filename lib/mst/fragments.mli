(** Base-fragment decomposition of an MST (Figure 1 of the paper).

    Phase 1 of the [KP98]-style MST construction partitions the
    eventual MST into O(√n) vertex-disjoint subtrees ("base
    fragments"), each of hop-diameter O(√n). Every fragment-local
    computation of Sections 3–5 is an up/down pass over these trees. *)

type t = {
  count : int;  (** number of fragments *)
  frag_of : int array;  (** vertex -> fragment index in [0..count-1] *)
  tree_edges : int list array;
      (** vertex -> incident internal (fragment-tree) edge ids; this is
          the local knowledge a vertex keeps from phase 1 *)
  members : int list array;  (** fragment -> member vertices *)
  internal_edges : int list array;  (** fragment -> its tree edge ids *)
  hop_diameter : int array;  (** fragment -> internal tree hop-diameter *)
}

(** [make g ~frag_of ~internal] builds the bundle from a vertex
    partition and the per-fragment internal tree edges (computing
    member lists, per-vertex incident edges and hop diameters).
    @raise Invalid_argument if some fragment's edge set is not a
    spanning tree of its member set. *)
val make : Ln_graph.Graph.t -> frag_of:int array -> internal:int list array -> t

(** [tree_hop_diameter adj start] is the hop diameter of the tree
    holding [start], whose adjacency is [adj]: a double BFS sweep,
    exact on trees. *)
val tree_hop_diameter : (int -> int list) -> int -> int

(** Maximum fragment hop-diameter (the paper's O(√n) quantity). *)
val max_hop_diameter : t -> int

(** [check g t] re-validates all structural invariants; used in tests. *)
val check : Ln_graph.Graph.t -> t -> (unit, string) result
