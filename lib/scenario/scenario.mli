(** Declarative chaos scenarios.

    A scenario is one value: a topology, a workload mix, a fault
    schedule and a set of SLO assertions — parsed from a small
    line-oriented text format ([.scn] files, grammar in DESIGN.md
    "Scenario layer"). {!Runner.run} compiles it onto the existing
    [Engine]/[Fault]/[Reliable]/[Monitor]/[Telemetry]/[Serve] stack
    and judges the execution with [Monitor]-style certifiers: the
    declared assertions are the intended behaviour, the certified run
    is the executable artifact, and the per-assertion table is the
    refinement check (in the spirit of Cocoon's refinement checking).

    Everything is deterministic by [seed]: the topology, the fault
    coins, the workloads. A committed [.scn] file replays bit-for-bit.

    Example:
    {v
    name rolling-churn
    seed 11
    topology er n=64 p=0.12
    run broadcast root=0 value=7 reliable retries=64
    fault drop p=0.05 until=40
    fault crash node=5 at=2 recover=12
    fault crash node=9 at=6 recover=16
    assert verdict correct
    assert min-delivered 1.0
    assert rounds 4000
    v} *)

type topology =
  | Er of { n : int; p : float }  (** connected Erdős–Rényi *)
  | Geo of { n : int; radius : float }  (** connected random geometric *)
  | Grid of { rows : int; cols : int }
  | Path of int
  | Clustered of { clusters : int; size : int; p_in : float; p_out : float }
  | Rmat of { scale : int; edge_factor : int }  (** Graph500 RMAT, as drawn *)
  | File of string  (** DIMACS-like graph file *)
  | Artifact_file of string  (** route artifact: graph + built oracle *)

type step =
  | Bfs of { root : int; reliable : bool; retries : int }
  | Broadcast of { root : int; value : int; reliable : bool; retries : int }
  | Mst  (** the full distributed-MST pipeline (no ARQ wrapper) *)
  | Serve of {
      tier : string;  (** spanner | label | cache *)
      workload : string;  (** {!Ln_route.Workload.parse} spec *)
      queries : int;
      cache : int;
      stretch : float option;
          (** certification bound; [None] = the artifact's promise *)
      store : string option;
          (** [Some dir]: the fleet form — serve every artifact in the
              store at [dir] through {!Ln_store.Fleet} instead of the
              topology's single artifact. The [min-hit-rate] SLO then
              reads the store's oracle-LRU hit rate. *)
      capacity : int;  (** store form: loaded-oracle LRU capacity *)
      net_skew : float;  (** store form: Zipf over networks, 0 = uniform *)
    }

type fault_spec =
  | Drop of { p : float; until : int option }
  | Link_window of { edge : int; from_ : int; until : int option }
  | Crash_window of { node : int; at : int; recover : int option }

(** The worst verdict the scenario tolerates: [Correct_only] fails on
    Degraded, [Degraded_ok] fails only on Wrong. *)
type verdict_floor = Correct_only | Degraded_ok

type slo =
  | Verdict of verdict_floor
  | Rounds of int  (** total engine rounds across all steps, at most *)
  | Max_stretch of float  (** certified serving stretch, at most *)
  | P99_us of float  (** worst per-step p99 query latency, at most *)
  | Min_delivered of float
      (** fraction of surviving nodes reached, per flood/BFS step, at
          least *)
  | Max_retrans of int  (** total ARQ retransmissions, at most *)
  | Min_hit_rate of float  (** worst serve-step cache hit rate, at least *)

type t = {
  name : string;
  seed : int;
  topology : topology;
  steps : step list;
  faults : fault_spec list;
  slos : slo list;
  max_rounds : int;  (** per-engine-run cap, marked (not raised) when hit *)
}

val default_max_rounds : int

(** [parse ?name text] parses the text format. Errors carry
    ["name:line: message"]. *)
val parse : ?name:string -> string -> (t, string) result

(** [load path] parses a [.scn] file; the scenario's default name is
    the file's basename without extension.
    @raise Failure on unreadable file or parse error. *)
val load : string -> t

(** Human label for one assertion, e.g. ["rounds <= 400"]; also the
    canonical [assert] line body. *)
val describe_slo : slo -> string

(** Canonical text of the scenario; [parse] of the output yields the
    same value (pinned by test). *)
val to_text : t -> string
