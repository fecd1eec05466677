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

(** [write_graph oc g] emits [g]. *)
val write_graph : out_channel -> Graph.t -> unit

(** [read_graph ic] parses a graph.
    @raise Failure naming the 1-based line on malformed input: a
    malformed [p] or [e] line, an edge line before the [p] line, an
    endpoint outside [1..n], a non-positive or non-finite weight, a
    missing [p] line, or a number of [e] lines that differs from the
    declared [m] (what a writer killed mid-file leaves behind). *)
val read_graph : in_channel -> Graph.t

(** [save_graph path g] / [load_graph path] — file convenience. Saving
    replaces [path] atomically ({!Ln_obs.Atomic_file.write}), as does
    {!save_edge_set}. A [load_*] error starts with the path:
    [PATH: line N: msg]. *)
val save_graph : string -> Graph.t -> unit

val load_graph : string -> Graph.t

(** [write_edge_set oc ids] / [read_edge_set ic] — one edge id per
    line, '#' comments allowed.
    [read_edge_set] raises [Failure] naming the line on an entry that
    is not a non-negative integer, and on a count that differs from
    the one [write_edge_set]'s header line declares. *)
val write_edge_set : out_channel -> int list -> unit

val read_edge_set : in_channel -> int list

val save_edge_set : string -> int list -> unit
val load_edge_set : string -> int list
