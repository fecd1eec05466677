(** Digest-keyed artifact store: the many-networks serving substrate.

    A store is a directory of canonically-encoded {!Ln_route.Artifact}
    files, each named by the 16-hex-digit digest of its source graph
    ([<digest>.artifact]). On top of the directory sits a
    capacity-bounded LRU of {e loaded} oracles: {!oracle} resolves a
    digest to a ready {!Ln_route.Oracle.t}, loading (and evicting the
    stalest resident) on a miss. Hit/miss/eviction traffic is counted
    both locally ({!stats}) and through the {!Ln_obs.Metrics} registry
    ([lightnet_store_*] series).

    Corruption is quarantined, not fatal: a file that
    {!Ln_route.Artifact.load} rejects (bad magic, checksum or digest
    mismatch, truncation), whose content digest disagrees with its
    filename, or that {!Ln_route.Oracle.create} cannot serve (an SLT
    that is not a spanning tree) is renamed to
    [<name>.artifact.quarantined] and its entry marked {!Quarantined};
    every other network keeps serving.
    {!gc} deletes quarantined files; re-{!add}ing a good copy of the
    same network revives the digest.

    [add] re-encodes through [load -> save], so stored files are
    always in canonical form regardless of how the input was produced
    (the encoding is deterministic, so canonical files are
    byte-diffable).

    A store is a single-domain structure: resolve oracles on one
    domain (the fleet driver does this in its sequential pre-pass,
    which also makes the LRU accounting deterministic).

    A load reads the file with {!Ln_route.Artifact.load}, which raises
    only [Failure] on a malformed file (resource exhaustion excepted),
    and readies the oracle with
    {!Ln_route.Oracle.create}, which roots and checks the SLT but
    leaves labelling it to the first label-tier query. *)

type status = Ready | Quarantined of string  (** why it was rejected *)

type entry = {
  digest : string;  (** 16 lowercase hex digits *)
  path : string;  (** the [.artifact] path (even when quarantined) *)
  bytes : int;  (** on-disk size, 0 if the file is missing *)
  status : status;
  loaded : bool;  (** currently resident in the oracle LRU *)
}

type stats = {
  hits : int;
  misses : int;  (** artifact loads (including ones that quarantined) *)
  evictions : int;
  loaded : int;  (** oracles currently resident *)
  ready : int;
  quarantined : int;
}

type t

(** [open_dir dir] creates [dir] if needed and indexes every
    [*.artifact] / [*.artifact.quarantined] file whose stem is a
    well-formed digest. Nothing is loaded yet. [capacity] bounds the
    loaded-oracle LRU (default 8); [cache_capacity] is passed to each
    {!Ln_route.Oracle.create} (default 64).
    @raise Invalid_argument on capacities < 1 or if [dir] exists and
    is not a directory. *)
val open_dir : ?capacity:int -> ?cache_capacity:int -> string -> t

val dir : t -> string
val capacity : t -> int

(** Digests of the {!Ready} entries, sorted. *)
val digests : t -> string list

(** Every entry, sorted by digest. *)
val ls : t -> entry list

(** [oracle t digest] is the loaded oracle for [digest]: an LRU hit,
    or a load (evicting the stalest resident at capacity). [Error]
    on unknown digests and quarantined or newly-quarantining
    artifacts. *)
val oracle : t -> string -> (Ln_route.Oracle.t, string) result

(** [add t path] ingests the artifact file at [path]: validates it as
    {!verify} does (bar the filename check), re-encodes it canonically
    as [<digest>.artifact] inside the store and indexes it. The file
    is written through a [<digest>.artifact.tmp] sibling and renamed
    into place ({!Ln_route.Artifact.save}), so a killed [add] never
    leaves a truncated artifact that {!open_dir} would list.
    Idempotent — adding a digest that is already [`Ready] is a no-op
    reported as [`Duplicate]; adding a good copy of a quarantined
    digest revives it (reported as [`Added]). *)
val add : t -> string -> (string * [ `Added | `Duplicate ], string) result

(** Re-read every entry from disk and check it end to end (format,
    checksum, filename-vs-content digest, an SLT the oracle can serve).
    Failing entries are quarantined as a side effect; already-quarantined
    entries report their stored reason. Sorted by digest. *)
val verify : t -> (string * (unit, string) result) list

(** Delete quarantined files and drop their entries; returns how many
    were collected. *)
val gc : t -> int

val stats : t -> stats
