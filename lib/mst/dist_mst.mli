(** Distributed MST in the CONGEST model, in the two-phase style of
    [KP98]/[Elk17b] that the paper builds on (Section 3.1).

    Phase 1 produces O(√n) base fragments of bounded hop-diameter
    ({!Boruvka}; charged per phase from measured fragment diameters).
    Phase 2 finishes Borůvka globally: in each iteration every vertex
    learns its neighbours' fragment ids (1 native round), per-fragment
    minimum outgoing edges are aggregated and broadcast over the BFS
    tree ({!Ln_prim.Keyed}, O(#fragments + D) native rounds), and every
    vertex applies the same deterministic merge step locally. Because
    the per-iteration tables are broadcast, at the end *every vertex
    knows the entire inter-fragment tree T′* — exactly the global
    knowledge Section 3 assumes.

    Weight ties are broken by edge id, so the result coincides with
    {!Ln_graph.Mst_seq.kruskal} edge-for-edge. *)

type t = {
  graph : Ln_graph.Graph.t;
  bfs : Ln_graph.Tree.t;  (** the BFS tree τ used for aggregation *)
  mst_edges : int list;  (** all n-1 MST edge ids *)
  base : Fragments.t;  (** phase-1 base fragments *)
  external_edges : int list;  (** MST edges crossing base fragments *)
  ledger : Ln_congest.Ledger.t;
}

(** [run g] computes the MST. [root] is the BFS-tree root (default 0);
    [diam_cap] overrides phase 1's fragment hop-diameter cap (default
    2·⌈√n⌉+2 — pass [max_int] to reproduce the uncontrolled-Borůvka
    pathology, ablation A2).
    @raise Invalid_argument if [g] is disconnected. *)
val run : ?root:int -> ?diam_cap:int -> Ln_graph.Graph.t -> t

(** The MST rooted at a designated vertex, per Section 3.1: T′ is known
    globally, each fragment's root [r_i] is the endpoint of its
    external edge towards the parent fragment, and fragment-internal
    orientation is a native parallel flood from the [r_i]. The rooted
    MST is this one parent column; nothing re-roots it centrally. *)
type rooted = {
  parent_edge : int array;  (** per-vertex MST parent edge; -1 at rt *)
  frags : Ln_prim.Tree_frags.t;
      (** the base fragments as a rooted forest, derived once from
          [parent_edge] by {!Ln_prim.Tree_frags.of_partition} *)
}

(** [root_at t ~rt] orients the MST at [rt]; the native flood rounds are
    appended to [t.ledger]. *)
val root_at : t -> rt:int -> rooted
