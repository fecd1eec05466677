module Graph = Ln_graph.Graph

type cause = Random_drop | Link_down | Crash

type link_failure = { edge : int; from_round : int; until_round : int option }

type crash = { node : int; crash_round : int; recover_round : int option }

type counts = { random_drops : int; link_drops : int; crash_drops : int }

let total c = c.random_drops + c.link_drops + c.crash_drops

type plan = {
  seed : int;
  drop_prob : float;
  drop_until : int;
  link_failures : link_failure array;
  crashes : crash array;
  mutable run : int;
  mutable random_drops : int;
  mutable link_drops : int;
  mutable crash_drops : int;
}

(* Validation errors carry the offending ids and bounds, and their
   wording is pinned by test_fault.ml: a malformed plan must fail
   loudly at [make] time, not run as a silently dead window. *)
let fail fmt = Printf.ksprintf invalid_arg fmt

let make ?(drop_prob = 0.0) ?(drop_until = max_int) ?(link_failures = [])
    ?(crashes = []) ?graph ~seed () =
  if drop_prob < 0.0 || drop_prob >= 1.0 then
    invalid_arg "Fault.make: drop_prob must be in [0, 1)";
  let n, m =
    match graph with
    | Some g -> (Graph.n g, Graph.m g)
    | None -> (max_int, max_int)
  in
  List.iter
    (fun f ->
      if f.edge < 0 || f.from_round < 0 then
        fail "Fault.make: link failure on edge %d at round %d is negative"
          f.edge f.from_round;
      if f.edge >= m then
        fail "Fault.make: link-failure edge %d out of range (m=%d)" f.edge m;
      match f.until_round with
      | Some u when u <= f.from_round ->
        fail "Fault.make: link %d failure window [%d,%d) is empty" f.edge
          f.from_round u
      | _ -> ())
    link_failures;
  List.iter
    (fun c ->
      if c.node < 0 || c.crash_round < 0 then
        fail "Fault.make: crash of node %d at round %d is negative" c.node
          c.crash_round;
      if c.node >= n then
        fail "Fault.make: crash node %d out of range (n=%d)" c.node n;
      match c.recover_round with
      | Some r when r <= c.crash_round ->
        fail "Fault.make: crash window [%d,%d) of node %d is empty"
          c.crash_round r c.node
      | _ -> ())
    crashes;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.node then
        fail "Fault.make: duplicate crash of node %d" c.node;
      Hashtbl.add seen c.node ())
    crashes;
  {
    seed;
    drop_prob;
    drop_until;
    link_failures = Array.of_list link_failures;
    crashes = Array.of_list crashes;
    run = 0;
    random_drops = 0;
    link_drops = 0;
    crash_drops = 0;
  }

let seed p = p.seed

let clear_counts p =
  p.random_drops <- 0;
  p.link_drops <- 0;
  p.crash_drops <- 0

let begin_run p =
  p.run <- p.run + 1;
  clear_counts p

let reset p =
  p.run <- 0;
  clear_counts p

let crashed p ~node ~round =
  let a = p.crashes in
  let len = Array.length a in
  let rec go i =
    if i >= len then false
    else
      let c = a.(i) in
      (c.node = node && c.crash_round <= round
      && match c.recover_round with None -> true | Some r -> round < r)
      || go (i + 1)
  in
  go 0

let link_down p ~edge ~round =
  let a = p.link_failures in
  let len = Array.length a in
  let rec go i =
    if i >= len then false
    else
      let f = a.(i) in
      (f.edge = edge && f.from_round <= round
      && match f.until_round with None -> true | Some u -> round < u)
      || go (i + 1)
  in
  go 0

(* Splitmix-style mixer: the drop coin is a pure function of the plan
   seed, the run counter and the message's (round, edge, direction) —
   no sequential PRNG state, so the schedule is independent of the
   order in which the engine processes messages within a round. *)
let coin p ~round ~edge ~dir =
  let h = ref ((p.seed + 0x7F4A7C15) * 0x9E3779B1) in
  h := (!h lxor ((p.run + 1) * 0x85EBCA6B)) * 0xC2B2AE35;
  h := (!h lxor ((round + 1) * 0x27D4EB2F)) * 0x165667B1;
  h := (!h lxor (((edge * 2) + dir + 1) * 0x9E3779B1)) * 0x85EBCA6B;
  h := !h lxor (!h lsr 17);
  float_of_int (!h land 0xFFFFFF) /. 16777216.0

let fate p ~sender ~dest ~edge ~round =
  if crashed p ~node:sender ~round then Some Crash
  else if crashed p ~node:dest ~round:(round + 1) then Some Crash
  else if Array.length p.link_failures > 0 && link_down p ~edge ~round then
    Some Link_down
  else if
    p.drop_prob > 0.0 && round < p.drop_until
    && coin p ~round ~edge ~dir:(if sender < dest then 0 else 1) < p.drop_prob
  then Some Random_drop
  else None

let record p = function
  | Random_drop -> p.random_drops <- p.random_drops + 1
  | Link_down -> p.link_drops <- p.link_drops + 1
  | Crash -> p.crash_drops <- p.crash_drops + 1

let counts p =
  {
    random_drops = p.random_drops;
    link_drops = p.link_drops;
    crash_drops = p.crash_drops;
  }

let surviving_node p v =
  not
    (Array.exists
       (fun c -> c.node = v && c.recover_round = None)
       p.crashes)

let surviving_edge p e =
  not
    (Array.exists
       (fun f -> f.edge = e && f.until_round = None)
       p.link_failures)

let describe p =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "seed=%d" p.seed);
  if p.drop_prob > 0.0 then begin
    Buffer.add_string b (Printf.sprintf " drop=%g" p.drop_prob);
    if p.drop_until <> max_int then
      Buffer.add_string b (Printf.sprintf "@<%d" p.drop_until)
  end;
  Array.iter
    (fun f ->
      Buffer.add_string b
        (match f.until_round with
        | None -> Printf.sprintf " link%d-[%d,inf)" f.edge f.from_round
        | Some u -> Printf.sprintf " link%d-[%d,%d)" f.edge f.from_round u))
    p.link_failures;
  Array.iter
    (fun c ->
      Buffer.add_string b
        (match c.recover_round with
        | None -> Printf.sprintf " crash%d@%d" c.node c.crash_round
        | Some r -> Printf.sprintf " crash%d@[%d,%d)" c.node c.crash_round r))
    p.crashes;
  Buffer.contents b
