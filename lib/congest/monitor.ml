module Graph = Ln_graph.Graph
module Paths = Ln_graph.Paths
module Union_find = Ln_graph.Union_find

type verdict = Correct | Degraded | Wrong

type report = { verdict : verdict; detail : string }

let verdict_name = function
  | Correct -> "correct"
  | Degraded -> "degraded"
  | Wrong -> "wrong"

let pp ppf r =
  Format.fprintf ppf "%s (%s)" (verdict_name r.verdict) r.detail

let correct detail = { verdict = Correct; detail }
let degraded detail = { verdict = Degraded; detail }
let wrong detail = { verdict = Wrong; detail }

(* BFS from [root] over surviving edges between surviving nodes. *)
let surviving_hops g plan ~root =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  if Fault.surviving_node plan root then begin
    dist.(root) <- 0;
    let q = Queue.create () in
    Queue.add root q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Graph.iter_neighbors g u (fun e v ->
          if
            dist.(v) < 0
            && Fault.surviving_edge plan e
            && Fault.surviving_node plan v
          then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
    done
  end;
  dist

(* Claims that differ from the fault-free layers are held to what a
   relaxing BFS can leave behind when faults only remove links and
   nodes. A surviving node reachable in the surviving subgraph must
   claim a distance, and no more than its surviving one. A claim k >= 0
   needs a witness: the root claiming 0, or a neighbour in [g] claiming
   less than k (a crashed neighbour's last claim counts, since it may
   have relayed before it crashed). On a surviving subgraph that is
   the whole graph, this admits the fault-free layers only. *)
let bfs g plan ~root ~dist =
  let n = Graph.n g in
  if Array.length dist <> n then
    invalid_arg "Monitor.bfs: dist array has wrong length";
  let full = Paths.bfs_hops g root in
  if dist = full then correct "BFS layers match the fault-free graph"
  else begin
    let surv = surviving_hops g plan ~root in
    let witnessed v =
      let d = dist.(v) in
      let found = ref (v = root && d = 0) in
      Graph.iter_neighbors g v (fun _ u ->
          if dist.(u) >= 0 && dist.(u) < d then found := true);
      !found
    in
    let bad = ref None in
    for v = n - 1 downto 0 do
      if Fault.surviving_node plan v then begin
        let d = dist.(v) in
        if surv.(v) >= 0 && (d < 0 || d > surv.(v)) then
          bad :=
            Some
              (Printf.sprintf
                 "node %d claims hop distance %d, surviving subgraph says %d" v d
                 surv.(v))
        else if d >= 0 && not (witnessed v) then
          bad :=
            Some
              (Printf.sprintf
                 "node %d claims hop distance %d, but no neighbour claims less" v d)
      end
    done;
    match !bad with
    | None -> degraded "BFS layers are sound on the surviving subgraph"
    | Some detail -> wrong detail
  end

let broadcast g plan ~root ~value ~got =
  let n = Graph.n g in
  if Array.length got <> n then
    invalid_arg "Monitor.broadcast: got array has wrong length";
  let corrupted = ref None in
  for v = n - 1 downto 0 do
    match got.(v) with
    | Some x when x <> value -> corrupted := Some (v, x)
    | _ -> ()
  done;
  match !corrupted with
  | Some (v, x) ->
    wrong (Printf.sprintf "node %d received %d instead of %d" v x value)
  | None ->
    if Array.for_all (fun o -> o = Some value) got then
      correct "every node received the value"
    else begin
      let surv = surviving_hops g plan ~root in
      let missed = ref None in
      for v = n - 1 downto 0 do
        if surv.(v) >= 0 && got.(v) <> Some value then missed := Some v
      done;
      match !missed with
      | None -> degraded "every reachable surviving node received the value"
      | Some v ->
        wrong
          (Printf.sprintf
             "node %d is reachable in the surviving subgraph but got nothing" v)
    end

(* Count the distinct components among the vertices satisfying [keep],
   where [join] unions whatever edges are admissible. *)
let component_count n ~keep ~join =
  let uf = Union_find.create n in
  join uf;
  let seen = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    if keep v then Hashtbl.replace seen (Union_find.find uf v) ()
  done;
  Hashtbl.length seen

let spanning_forest g plan ~edges =
  let n = Graph.n g in
  let uf = Union_find.create n in
  let cycle = ref None in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      if not (Union_find.union uf u v) then cycle := Some e)
    edges;
  match !cycle with
  | Some e -> wrong (Printf.sprintf "edge %d closes a cycle" e)
  | None ->
    let full_cc =
      component_count n
        ~keep:(fun _ -> true)
        ~join:(fun uf ->
          Graph.iter_edges g (fun e _ ->
              let u, v = Graph.endpoints g e in
              ignore (Union_find.union uf u v);
              ignore e))
    in
    let forest_cc =
      component_count n ~keep:(fun _ -> true) ~join:(fun uf ->
          List.iter
            (fun e ->
              let u, v = Graph.endpoints g e in
              ignore (Union_find.union uf u v))
            edges)
    in
    if forest_cc = full_cc then
      correct "forest spans every component of the graph"
    else begin
      let keep v = Fault.surviving_node plan v in
      let surv_cc =
        component_count n ~keep ~join:(fun uf ->
            Graph.iter_edges g (fun e _ ->
                let u, v = Graph.endpoints g e in
                if Fault.surviving_edge plan e && keep u && keep v then
                  ignore (Union_find.union uf u v)))
      in
      let chosen_cc =
        component_count n ~keep ~join:(fun uf ->
            List.iter
              (fun e ->
                let u, v = Graph.endpoints g e in
                if Fault.surviving_edge plan e && keep u && keep v then
                  ignore (Union_find.union uf u v))
              edges)
      in
      if chosen_cc = surv_cc then
        degraded "surviving forest edges span the surviving subgraph"
      else
        wrong
          (Printf.sprintf
             "forest leaves %d components where the surviving subgraph has %d"
             chosen_cc surv_cc)
    end
