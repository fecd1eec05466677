(** Reading and writing weighted graphs (and edge subsets) in the
    DIMACS-like text format:

    {v
    c comment lines
    p edge <n> <m>
    e <u> <v> <w>        (1-based vertex ids, float weights)
    v}

    Subgraph certificates (spanners, trees) are exchanged as edge-id
    lists, one per line, against a named graph file — so CLI runs can
    be checked and re-used by external tooling. *)

(** [save_graph path g] / [load_graph path] — file convenience. Saving
    replaces [path] atomically ({!Ln_obs.Atomic_file.write}), as does
    {!save_edge_set}.
    @raise Failure [PATH: line N: msg] on malformed input: a malformed
    [p] or [e] line, an edge line before the [p] line, an endpoint
    outside [1..n], a non-positive or non-finite weight, a missing [p]
    line, or a number of [e] lines that differs from the declared [m]
    (what a writer killed mid-file leaves behind). *)
val save_graph : string -> Graph.t -> unit

val load_graph : string -> Graph.t

(** [save_edge_set path ids] / [load_edge_set path] — one edge id per
    line, '#' comments allowed. [load_edge_set] raises [Failure]
    [PATH: line N: msg] on an entry that is not a non-negative integer,
    and on a count that differs from the one the saved header line
    declares. *)
val save_edge_set : string -> int list -> unit

val load_edge_set : string -> int list
