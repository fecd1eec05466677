(** Post-run certifiers for faulty executions.

    A chaos run needs a verdict, not just stats. Each certifier here
    re-checks an algorithm's output against ground truth computed
    centrally on the input graph and classifies the run:

    - {!Correct}: the output is exactly what a fault-free run would
      certify — the faults were absorbed.
    - {!Degraded}: not correct on the full graph, but correct on the
      *surviving subgraph* (non-crashed nodes, edges with no permanent
      failure) — the protocol did the best the network allowed.
    - {!Wrong}: the output is inconsistent even with the surviving
      subgraph — the faults corrupted the result.

    Crashed nodes' outputs are never inspected (a crashed processor
    owes nothing), but a *wrong value* on any live node is always
    {!Wrong}, never merely degraded. *)

type verdict = Correct | Degraded | Wrong

type report = { verdict : verdict; detail : string }

val verdict_name : verdict -> string
val pp : Format.formatter -> report -> unit

(** Hop distances from [root] inside the surviving subgraph of [g]
    under the plan; [-1] for unreachable (or crashed) vertices, all
    [-1] if the root itself crashes. *)
val surviving_hops : Ln_graph.Graph.t -> Fault.plan -> root:int -> int array

(** [bfs g plan ~root ~dist] certifies BFS layers: [dist.(v)] is the
    hop distance node [v] claims ([-1] for "unreached"). Layers equal
    to the fault-free ones are {!Correct}. Otherwise every surviving
    node [v] must pass two checks, or the run is {!Wrong}: if [v] is
    reachable in the surviving subgraph, [0 <= dist.(v) <= surv v];
    and a claim [dist.(v) >= 0] is [0] at the root or exceeds some
    neighbour's claim [dist.(u) >= 0] in [g] (a crashed neighbour's
    last claim counts: it may have relayed before crashing). A run
    that passes is {!Degraded}. Where the surviving subgraph is the
    whole graph, only the fault-free layers pass. *)
val bfs :
  Ln_graph.Graph.t -> Fault.plan -> root:int -> dist:int array -> report

(** [broadcast g plan ~root ~value ~got] certifies a flood of [value]
    from [root]: any live node holding a different value is {!Wrong};
    all nodes holding [value] is {!Correct}; every surviving node
    reachable from [root] in the surviving subgraph holding it is
    {!Degraded}. *)
val broadcast :
  Ln_graph.Graph.t ->
  Fault.plan ->
  root:int ->
  value:int ->
  got:int option array ->
  report

(** [spanning_forest g plan ~edges] certifies a forest: cycles are
    {!Wrong}; spanning every component of [g] is {!Correct}; the
    surviving chosen edges spanning every component of the surviving
    subgraph is {!Degraded}. *)
val spanning_forest :
  Ln_graph.Graph.t -> Fault.plan -> edges:int list -> report
