(** A rooted spanning tree cut into fragments, as a rooted forest of
    fragment trees: the structure every fragment-local pass of the
    paper runs over.

    {!of_partition} derives the forest from a parent column and a
    vertex partition; it is the one place this derivation lives. The
    MST's base fragments ([Dist_mst.root_at], Section 3.1) and
    {!decompose}'s cut of the approximate shortest-path tree T_rt
    (Section 4.2) both go through it.

    {!decompose} cuts an arbitrary rooted spanning tree into O(√n)
    subtrees of O(√n) size — the structure Section 4.2 obtains by
    "applying the first phase of the MST algorithm of [KP98]" to T_rt.
    The cut itself is computed centrally and stands in for that
    black-box invocation (charge O(√n) rounds — see DESIGN.md);
    everything downstream (fragment-local up/down passes) runs natively
    via {!Forest}. *)

type t = {
  count : int;
  frag_of : int array;  (** vertex -> fragment *)
  root_of : int array;  (** fragment -> its root vertex *)
  parent_frag : int array;  (** fragment -> parent fragment (-1 at top) *)
  frag_parent_edge : int array;
      (** fragment -> tree edge from its root to the parent fragment *)
  internal_parent : int array;
      (** vertex -> parent edge if inside the same fragment, -1 at
          fragment roots *)
  tree_edges : int list array;
      (** vertex -> incident intra-fragment tree edges *)
  ext_children : (int * int) list array;
      (** vertex -> (child fragment root, connecting edge) for child
          fragments attached below this vertex, in descending fragment
          order *)
}

(** [of_partition g ~parent_edge ~frag_of ~count] is the fragment
    forest of the rooted spanning tree given by [parent_edge] ([-1] at
    the root) under the partition [frag_of] into fragments
    [0..count-1], each of which must hold one connected subtree. A
    fragment's root is its one vertex whose parent lies outside it (or
    the tree's root); [frag_of] is shared, not copied. *)
val of_partition :
  Ln_graph.Graph.t -> parent_edge:int array -> frag_of:int array -> count:int -> t

(** [decompose g ~parent_edge ~root ~target_size] cuts the rooted tree
    given by [parent_edge] ([-1] at [root]) into fragments of size
    ~[target_size] (subtree-accumulation cutting; size can exceed the
    target by a degree factor, reported by callers' stats), numbered
    in depth-first order of their roots. *)
val decompose :
  Ln_graph.Graph.t -> parent_edge:int array -> root:int -> target_size:int -> t
