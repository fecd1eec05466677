(** Process-ambient telemetry: phase spans, per-round timeseries and
    trace export.

    The layer has two halves:

    - {b Spans} ({!span}) work always, recording or not: a span
      snapshots {!Engine.totals} around a phase and (when given a
      ledger) auto-records the measured rounds as a [Ledger.native]
      entry — replacing manual bookkeeping at call sites. Spans nest;
      each captures rounds, engine runs, node steps, messages, words,
      fault drops, retransmissions and wall time.

    - {b Recording} ({!record}) additionally captures the full event
      stream: hierarchical span begin/end events, one {!event.Round}
      sample per executed engine round (emitted identically by both
      engine backends — the differential guarantee extends to
      telemetry), and per-directed-link message totals. The result
      ({!t}) exports to JSONL, to Chrome trace-event JSON loadable in
      Perfetto, or to a text report.

    Overhead contract: when nothing is recording, engine hot loops pay
    one option match per message and per round (no {!Engine.with_tap}
    is installed), and {!span} costs two [snapshot_totals] (a record
    copy) per phase — see [bench/engine_bench.ml]'s telemetry section
    for the measured figure. Recording is process-global and not
    reentrant. *)

(** One captured event. Rounds in [Span_begin.r0] / [Span_end.r1] are
    cumulative executed engine rounds since the recording began (a
    virtual clock shared with {!event.Round} samples). [t] fields are
    wall-clock seconds since it began; [t] and [wall] are the only
    non-deterministic fields (excluded from {!deterministic_lines}).
    {!load_file} ignores keys it does not know, so traces with extra
    [span_end] fields still load. [Round] samples carry per-round
    deltas; [round = 0] is an engine run's init round ([steps = 0],
    [active] = n). [Link] events come last, sorted by
    [(from, dest)]. *)
type event =
  | Span_begin of { id : int; parent : int; name : string; r0 : int; t : float }
  | Span_end of {
      id : int;
      name : string;
      r1 : int;
      rounds : int;
      runs : int;
      steps : int;
      messages : int;
      words : int;
      drops : int;
      retrans : int;
      wall : float;
      t : float;
    }
  | Round of {
      run : int;
      round : int;
      messages : int;
      words : int;
      steps : int;
      active : int;
      drops : int;
    }
  | Link of { from : int; dest : int; messages : int }

(** A completed recording. [rounds] is the total number of executed
    engine rounds observed; [wall] the recording's wall-clock span. *)
type t = { events : event list; rounds : int; wall : float }

(** [span ?ledger name f] runs [f ()] as a named phase. Always
    measures the phase via {!Engine.snapshot_totals} deltas; when
    [ledger] is given, records the measured rounds as
    [Ledger.native ledger ~label:name]. When a recording is active it
    also emits [Span_begin]/[Span_end] events (nested spans form a
    tree). If [f] raises, the span is closed in the event stream but
    no ledger entry is written. *)
val span : ?ledger:Ledger.t -> string -> (unit -> 'a) -> 'a

(** [record f] runs [f ()] and returns its result with the capture of
    every engine run and span inside it — the one way to capture a
    trace. It watches the runs through {!Engine.with_tap}. If [f]
    raises, the recording ends and the capture is discarded. Every
    span opened inside [f] is closed before [record] returns.
    @raise Invalid_argument if a recording is already active. *)
val record : (unit -> 'a) -> 'a * t

(** {2 Analysis} *)

(** Fraction of recorded engine rounds attributed to *leaf* spans
    (spans with no child span) — the phase-attribution coverage.
    [None] for a trace with no engine rounds, which has nothing to
    cover. *)
val leaf_round_coverage : t -> float option

(** Canonical one-line-per-event serialization with every
    non-deterministic field ([t], [wall]) omitted. For any program
    both engines ({!Engine.run_fast} and {!Engine.run_reference})
    produce byte-identical streams; fault plans preserve this (drops
    are deterministic). *)
val deterministic_lines : t -> string list

(** {2 Export}

    Both formats print one event per line, each an
    {!Ln_obs.Obs_json.v} printed by {!Ln_obs.Obs_json.to_text}, so
    every float ([t], [wall], gauge values, quantiles) is exact and
    every non-finite one still parses. An event has the same keys in
    the same order in both formats; {!deterministic_lines} drops only
    [t] and [wall]. *)

(** [write_file t path] writes JSONL if [path] ends in [.jsonl], and
    Chrome trace-event JSON otherwise, replacing the file atomically
    ({!Ln_obs.Atomic_file.write}).

    JSONL is a meta line [{"type":"meta","version":1,...}] followed by
    one JSON object per event. The Chrome file (load it in Perfetto or
    chrome://tracing) turns spans into duration events and round
    samples into counter tracks on a virtual time axis where one engine
    round is one microsecond tick. When a [metrics] snapshot is given,
    each metric is appended as a ["metrics/" ^ Metrics.display_name m]
    counter track at the final timestamp (histograms as their
    p50/p90/p99 estimates) — one run, both views; JSONL ignores it. The
    full event stream is also embedded under a top-level ["lightnet"]
    key (ignored by viewers) so the file round-trips through
    {!load_file} losslessly. *)
val write_file : ?metrics:Ln_obs.Metrics.snapshot -> t -> string -> unit

(** Load a trace written by {!write_file} (either format).
    @raise Failure on unparseable input, with a message that starts
    with the file name, or with [FILE:LINE] (1-based) for a JSONL
    line; also on a trace that is not whole: a JSONL trace with no
    meta line, a [span_begin] with no [span_end] (named by its line in
    JSONL), or a meta round count that differs from the number of
    [round > 0] samples. *)
val load_file : string -> t

(** Text report: run/round/message summary, the span tree with rounds,
    share of total, messages and wall time per phase, leaf coverage,
    and a log2-bucket histogram of per-link message load. *)
val pp_report : Format.formatter -> t -> unit
