(** Process-wide metrics registry: typed counters, gauges, and
    log-bucketed histograms with a deterministic JSON export.

    This is the cheap always-on aggregate layer that complements the
    trace-shaped [Telemetry] stack: where telemetry answers "what did
    that run do, round by round", the registry answers "what is this
    process doing right now" at a cost low enough to leave compiled in
    everywhere.

    {2 Hot-path cost model}

    The registry is disabled by default. Every update operation
    ([incr], [add], [set], [observe]) starts with a single [ref] read
    — the same pattern as [Engine.set_round_probe] — so an
    uninstrumented process pays one load and one predictable branch
    per call site, nothing else: no allocation, no locks, no atomics.

    {2 One domain}

    Each handle holds its own value (an [int] cell, a [float] cell or
    a {!Hist.t}), and an enabled update writes it in place. The
    registry belongs to the one domain that runs the program: nothing
    here locks, so registering, updating, snapshotting or resetting
    from a second domain at the same time is a data race.

    {2 Determinism}

    Metrics are registered with a [stable] flag. Stable metrics
    (counts of rounds, messages, cache hits, …) are deterministic
    functions of the seeded workload; timing-based metrics (latency
    histograms, wall-clock gauges) are not and must be registered
    with [~stable:false]. {!snapshot} keeps them (the Chrome trace
    embeds the full snapshot); {!to_json}, and so every metrics file,
    leaves them out and orders the rest by name and labels, so two
    same-seed runs produce byte-identical snapshots. *)

(** {1 Log-bucketed histograms}

    Constant-memory streaming histograms with bounded {e relative}
    error, usable standalone (e.g. [Serve.run] batches) or through
    the registry. Buckets are geometric with ratio
    [gamma = (1 + error) / (1 - error)]; a value [v] lands in bucket
    [ceil (log_gamma v)], whose representative midpoint is within
    [error * v] of every value in the bucket. Quantile estimates
    therefore carry relative error at most {!Hist.error} for values
    inside the tracked range ([1e-3] to [1e12]; out-of-range
    observations are resolved to the exact observed min/max, which are
    tracked as scalars). *)
module Hist : sig
  type t

  val error : float
  (** The relative-error bound of every histogram: [0.01], i.e. 1%. *)

  val create : unit -> t
  (** Fresh empty histogram: ~1700 bucket cells, constant regardless
      of how many values are observed. *)

  val observe : t -> float -> unit
  (** Record one value. NaN is ignored; values [<= 0] count into the
      underflow bucket (resolved to the observed min by quantiles). *)

  val count : t -> int

  val max_value : t -> float
  (** Exact observed max; [nan] if empty. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0, 1]: the bucket-representative
      estimate of the [ceil (q * count)]-th smallest observation,
      relative error bounded by {!error}. [0.] if empty. *)
end

(** {1 Registry handles}

    Registration is idempotent: requesting an already-registered
    (name, labels) pair returns the existing metric (and raises
    [Invalid_argument] if the kind differs). *)

type counter
type gauge
type histogram

val counter :
  ?help:string -> ?labels:(string * string) list -> ?stable:bool ->
  string -> counter

val gauge :
  ?help:string -> ?labels:(string * string) list -> ?stable:bool ->
  string -> gauge

val histogram :
  ?help:string -> ?labels:(string * string) list -> ?stable:bool ->
  string -> histogram

(** {1 Updates} *)

val on : unit -> bool
(** Whether the registry is live. One ref read — callers with
    non-trivial argument computation should guard on this. *)

val set_on : bool -> unit
(** Enable/disable the registry (e.g. when [--metrics] is given).
    Disabled updates are dropped, not buffered. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** exact; [nan] if empty *)
  h_max : float;  (** exact; [nan] if empty *)
  h_buckets : (float * int) list;
      (** (upper bound, cumulative count), ascending, one entry per
          non-empty bucket. Cumulative counts reach [h_count]. *)
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type metric = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  help : string;
  stable : bool;
  value : value;
}

type snapshot = metric list
(** Sorted by (name, labels): deterministic ordering. *)

val snapshot : unit -> snapshot
(** Every registered metric's current value, unstable ones
    included. *)

val reset : unit -> unit
(** Zero every registered metric in place (registrations and handles
    survive): counters and gauges read 0, histograms are empty. *)

val quantile : hist_snapshot -> float -> float
(** Same estimator as {!Hist.quantile}, over an exported snapshot. *)

val find : snapshot -> ?labels:(string * string) list -> string -> metric option
(** Lookup by name and (sorted or unsorted) label set. *)

(** {1 Export / import} *)

val to_json : snapshot -> string
(** Deterministic JSON snapshot of the [stable] metrics: sorted by
    (name, labels), one metric per line, each an object printed by
    {!Obs_json.to_text}, so floats are exact ([1e999] for infinities,
    [null] for NaN). Histograms still carry ["error":0.01] for older
    readers. Same-seed runs are byte-identical. *)

val of_json : string -> snapshot
(** Parse {!to_json} output, the inverse of it on values: [null] reads
    back as NaN in a gauge's value and a histogram's sum, and the
    ["error"] field is ignored. Raises [Failure] on malformed input,
    histogram buckets whose bounds do not ascend or whose cumulative
    counts do not rise to ["count"] included, naming the metric's index
    in ["metrics"], its name when it has one, and the key being read
    (or the parser's byte offset). *)

val write_file : snapshot -> string -> unit
(** Write {!to_json} to the path, whatever its extension, replacing the
    file atomically ({!Atomic_file.write}). *)

val display_name : metric -> string
(** A metric's name and labels for humans: [name{k=v,...}], or just
    [name] when unlabelled. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable table: one metric per line, keyed by
    {!display_name}, histograms rendered as count/p50/p90/p99/max. *)
