(** Quality metrics for subgraphs: the quantities Table 1 of the paper
    bounds — stretch, lightness, size — computed exactly (or on sampled
    pairs for large instances) against Dijkstra ground truth. *)

(** [lightness g ids] is [w(H) / w(MST)] where [H] is the edge set
    [ids]. On disconnected graphs the baseline is the minimum spanning
    forest ({!Mst_seq.forest_weight}), which coincides with the MST
    when [g] is connected. Degenerate baselines never produce [nan]:
    an edgeless or single-vertex graph has baseline 0 and lightness
    [1.0] (its only subgraph is empty). *)
val lightness : Graph.t -> int list -> float

(** [max_edge_stretch g ids] is the maximum over graph edges [(u,v)] of
    [d_H(u,v) / w(u,v)]. By the triangle inequality this equals the
    maximum pairwise stretch of the spanner [H = (V, ids)]. [infinity]
    if [H] fails to connect some edge's endpoints; [1.0] on an edgeless
    graph. Cost: one Dijkstra in [H] per vertex that has incident
    edges. *)
val max_edge_stretch : Graph.t -> int list -> float

(** [sampled_edge_stretch rng g ids ~samples] — same, over a random
    sample of edges (an underestimate; cheap for big instances). [1.0]
    when [g] has no edges. *)
val sampled_edge_stretch :
  Random.State.t -> Graph.t -> int list -> samples:int -> float

(** [tree_root_stretch g tree ~root] is the maximum over vertices [v]
    of [d_T(root, v) / d_G(root, v)], with [d_T] measured along [tree]
    — the SLT guarantee of Section 4. Vertices unreachable from [root]
    in [g] itself are skipped (their stretch is undefined). *)
val tree_root_stretch : Graph.t -> Tree.t -> root:int -> float
