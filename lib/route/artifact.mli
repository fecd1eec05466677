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
    mismatches, truncated or oversized payloads, and out-of-range edge
    ids. No external serialization library is used. *)

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

(** @raise Failure with a description of what is wrong when the file
    is not a valid artifact. *)
val load : string -> t

val pp : Format.formatter -> t -> unit
