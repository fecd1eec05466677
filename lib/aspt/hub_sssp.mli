(** Hub (skeleton) based single-source shortest paths — the stand-in
    for the [BKKL17] approximate SPT the paper invokes (see DESIGN.md,
    "Substitutions").

    Scheme (the classical Ullman–Yannakakis decomposition, executed
    natively on the engine):
    {ol
    {- sample Θ(√n · log n) hub vertices (the source is always a hub);}
    {- hop-limited multi-source Bellman–Ford from all hubs (hop cap
       Θ(√n)) — every vertex learns distance estimates to nearby hubs;}
    {- overlay relaxation: the hubs' current source-distance estimates
       are repeatedly broadcast over the BFS tree (Lemma 1, O(#hubs+D)
       rounds per iteration) and relaxed against the local tables;}
    {- a repair sweep: plain Bellman–Ford seeded with the combined
       estimates, which converges to the *exact* distances (the hub
       estimates are realizable upper bounds, so the sweep is short —
       measured, not assumed).}}

    The result is therefore an exact SPT; the (1+ε) slack the paper
    allows is not needed (exactness only tightens downstream stretch
    bounds). Round counts are recorded per phase in the returned
    ledger. *)

type t = {
  src : int;
  dist : float array;  (** exact distances from [src] *)
  tree : Ln_graph.Tree.t;
      (** the SPT as a rooted tree; read its parent-edge column with
          {!Ln_graph.Tree.view} *)
  hubs : int list;
  ledger : Ln_congest.Ledger.t;
}

(** [run ~rng g ~bfs ~src] computes the SPT. [edge_ok] restricts to a
    (connected, spanning) subgraph such as the graph H of Section 4.
    [hub_factor] scales the hub sampling probability (default 1.0). *)
val run :
  ?edge_ok:(int -> bool) ->
  ?hub_factor:float ->
  rng:Random.State.t ->
  Ln_graph.Graph.t ->
  bfs:Ln_graph.Tree.t ->
  src:int ->
  t
