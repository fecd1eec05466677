(** Persisted network artifacts: the consumption-side handoff.

    A build run (spanner + SLT + MST on one source graph) is packaged
    into a single versioned binary file — magic, format version,
    payload checksum, then the source graph itself, a digest of its
    canonical encoding, the three edge-id lists, the promised spanner
    stretch, construction parameters and ledger notes. {!Oracle} and
    the [lightnet serve] command consume artifacts without re-running
    any construction.

    The encoding is deterministic (edge lists sorted, no timestamps),
    so [save -> load -> save] produces byte-identical files; the
    loader rejects bad magic, unknown versions, checksum or digest
    mismatches, truncated or oversized payloads, bad edges (an
    endpoint out of range, a weight that is not positive),
    out-of-range edge ids and an out-of-range SLT root. No external
    serialization library is used. *)

type t = {
  graph : Ln_graph.Graph.t;  (** the source graph G *)
  digest : int64;  (** FNV-1a 64 of G's canonical encoding *)
  slt_root : int;
  spanner_stretch : float;  (** promised stretch bound t of the spanner *)
  spanner_edges : int list;  (** edge ids of the light spanner H *)
  slt_edges : int list;  (** edge ids of the shallow-light tree *)
  mst_edges : int list;
  params : (string * string) list;  (** construction parameters *)
  notes : (string * string) list;  (** replay notes from the ledgers *)
}

(** Validating constructor: sorts and dedups the edge lists, computes
    the graph digest.
    @raise Invalid_argument on out-of-range roots or edge ids. *)
val make :
  graph:Ln_graph.Graph.t ->
  slt_root:int ->
  spanner_stretch:float ->
  spanner_edges:int list ->
  slt_edges:int list ->
  mst_edges:int list ->
  ?params:(string * string) list ->
  ?notes:(string * string) list ->
  unit ->
  t

(** The digest {!make} computes, exposed for mismatch checks. *)
val graph_digest : Ln_graph.Graph.t -> int64

val digest_hex : t -> string

(** [save path t] writes [t] to [path], replacing any existing file
    atomically ({!Ln_obs.Atomic_file.write}). *)
val save : string -> t -> unit

(** [load path] reads and validates the artifact at [path]. One FNV-1a
    pass over the payload yields both the checksum and the graph
    digest; the graph section decodes straight into the columns of
    {!Ln_graph.Graph.of_edge_arrays}, whose canonical (ascending)
    order it takes without sorting; the edge-id lists are range-checked
    and kept in file order.
    @raise Failure ["Artifact.load: ..."] naming what is wrong (the
    edge index, the list and id, or the root and n) when the file is
    not a valid artifact. No other exception escapes for a malformed
    file, resource exhaustion excepted: the graph's arrays are sized
    by the stored vertex count (up to 2{^30} - 1), which nothing else
    in the file bounds, so a resealed file with a small edge list and
    a huge n can raise [Out_of_memory] instead. *)
val load : string -> t

val pp : Format.formatter -> t -> unit
