(** Scenario execution: compile a {!Scenario.t} onto the engine stack,
    run it, certify it, judge the SLOs.

    Compilation is mechanical: the topology becomes a graph (seeded by
    [scenario.seed]), the fault lines become one validated
    {!Ln_congest.Fault.plan} (range-checked against the graph), each
    [run] step becomes an engine execution under
    {!Ln_congest.Engine.with_faults} with the scenario's round cap, and
    each step's output is certified by the matching
    {!Ln_congest.Monitor} / {!Ln_route.Serve} certifier. Round-indexed
    faults (crash and link windows, [drop until]) are interpreted
    relative to each engine run: a multi-run step such as [mst] sees
    the schedule re-applied per sub-run — deterministically, like
    everything else here.

    The judgement is the refinement check: the scenario's [assert]
    lines are the specification, the certified execution is the
    implementation, and {!result.checks} reports, per assertion, the
    measured value against the declared bound. [serve] steps measure
    wall-clock latency, so [p99-us] assertions need machine-generous
    bounds; every other assertion is deterministic in the seed. *)

type step_result = {
  label : string;  (** e.g. ["2:broadcast+arq"] *)
  report : Ln_congest.Monitor.report;
  outcome : Ln_congest.Engine.outcome;
  delivered : float option;
      (** fraction of surviving nodes reached (bfs/broadcast) *)
  p99_us : float option;  (** serve steps *)
  hit_rate : float option;  (** cache-tier serve steps *)
  max_stretch : float option;  (** serve steps: certified max stretch *)
}

(** One judged assertion. The implicit first check, ["steps converge"],
    fails if any step hit the round cap. A numeric check carries its
    measured [value] and declared [bound] (the SLO margin); an
    assertion that cannot be measured (e.g. [min-hit-rate] with no
    cache-tier serve step) fails with an explanatory [measured]. *)
type check = {
  label : string;
  measured : string;
  value : float option;
  bound : float option;
  pass : bool;
}

type result = {
  scenario : Scenario.t;
  nodes : int;
  edges : int;
  plan : string;  (** [Fault.describe] of the compiled plan *)
  steps : step_result list;
  rounds : int;  (** engine rounds, summed over all steps *)
  drops : int;  (** fault-dropped messages *)
  retrans : int;  (** ARQ retransmissions *)
  checks : check list;
  ok : bool;  (** every check passed *)
}

(** The scenario's network, exactly as {!run} builds it. *)
val graph_of : Scenario.t -> Ln_graph.Graph.t

(** Execute and judge. Deterministic in [scenario.seed] (except the
    wall-clock latency fields). Each step runs inside a
    [Telemetry.span], so a [--trace] of a scenario run attributes
    rounds per step.
    @raise Failure on an unexecutable scenario (root out of range,
    unknown tier/workload, unreadable file) and [Invalid_argument] on
    a fault schedule the plan validator rejects. *)
val run : Scenario.t -> result

(** The per-assertion table the CLI prints. *)
val pp : Format.formatter -> result -> unit

(** One JSON object on one line (verdicts, rounds, drops,
    retransmissions, and per-check SLO margins; a missing or
    non-finite value or bound is [null]) — aggregated by
    [make scenarios] into BENCH_scenarios.json. *)
val json : result -> string
