(** The Baswana–Sen (2k−1)-spanner [BS07], distributed — used by
    Section 5 for the light bucket E′ = {e : w(e) ≤ L/n} (its weight is
    negligible there, so only the O(k·n^{1+1/k}) edge bound matters).

    Clusters are grown over k−1 sampling phases (probability n^{-1/k});
    in each phase the sampling bit is flooded down the cluster trees
    (native {!Ln_prim.Forest.down}, ≤ i rounds in phase i), cluster ids
    and bits are exchanged with neighbours (1 round), and every vertex
    decides locally which edges to keep, which sampled cluster to join
    and which incident edges die. Stretch 2k−1 is deterministic; the
    expected size is O(k·n^{1+1/k}).

    [edge_ok] restricts the algorithm to a subgraph (the bucket). Its
    native rounds are those of the engine runs it makes: a caller
    tallies them with {!Ln_congest.Telemetry.span} or
    {!Ln_congest.Engine.totals_since}. *)

type t = { edges : int list  (** spanner edge ids, sorted *) }

val build :
  ?edge_ok:(int -> bool) ->
  rng:Random.State.t ->
  k:int ->
  Ln_graph.Graph.t ->
  t
