type topology =
  | Er of { n : int; p : float }
  | Geo of { n : int; radius : float }
  | Grid of { rows : int; cols : int }
  | Path of int
  | Clustered of { clusters : int; size : int; p_in : float; p_out : float }
  | Rmat of { scale : int; edge_factor : int }
  | File of string
  | Artifact_file of string

type step =
  | Bfs of { root : int; reliable : bool; retries : int }
  | Broadcast of { root : int; value : int; reliable : bool; retries : int }
  | Mst
  | Serve of {
      tier : string;
      workload : string;
      queries : int;
      cache : int;
      stretch : float option;
      store : string option;
      capacity : int;
      net_skew : float;
    }

type fault_spec =
  | Drop of { p : float; until : int option }
  | Link_window of { edge : int; from_ : int; until : int option }
  | Crash_window of { node : int; at : int; recover : int option }

type verdict_floor = Correct_only | Degraded_ok

type slo =
  | Verdict of verdict_floor
  | Rounds of int
  | Max_stretch of float
  | P99_us of float
  | Min_delivered of float
  | Max_retrans of int
  | Min_hit_rate of float

type t = {
  name : string;
  seed : int;
  topology : topology;
  steps : step list;
  faults : fault_spec list;
  slos : slo list;
  max_rounds : int;
}

let default_max_rounds = 200_000

(* ------------------------------------------------------------------ *)
(* Parser. Line-oriented: [keyword arg...] where args are [key=value]
   pairs or bare flags; [#] starts a comment. Unknown keywords and
   unknown argument keys are errors — a typo in a declarative fault
   schedule must not silently weaken the scenario. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let tokens line =
  String.map (fun c -> if c = '\t' then ' ' else c) line
  |> String.split_on_char ' '
  |> List.filter (fun t -> t <> "")

let kv tok =
  match String.index_opt tok '=' with
  | Some i ->
    ( String.sub tok 0 i,
      Some (String.sub tok (i + 1) (String.length tok - i - 1)) )
  | None -> (tok, None)

(* Parse [args] into a checked field list: every key must be in
   [allowed] (flags are keys with no [=]). *)
let fields_of ~what ~allowed args =
  let fields = List.map kv args in
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        bad "unknown %s argument %S (allowed: %s)" what k
          (String.concat ", " allowed))
    fields;
  List.iteri
    (fun i (k, _) ->
      if List.exists (fun (k', _) -> k' = k) (List.filteri (fun j _ -> j < i) fields)
      then bad "duplicate %s argument %S" what k)
    fields;
  fields

let value fields k =
  match List.assoc_opt k fields with
  | Some (Some v) -> Some v
  | Some None -> bad "argument %S needs a value (%s=...)" k k
  | None -> None

let flag fields k =
  match List.assoc_opt k fields with
  | Some None -> true
  | Some (Some _) -> bad "%S is a flag and takes no value" k
  | None -> false

let to_int k v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> bad "%s expects an integer, got %S" k v

let to_float k v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> bad "%s expects a number, got %S" k v

let int_opt fields k = Option.map (to_int k) (value fields k)
let float_opt fields k = Option.map (to_float k) (value fields k)

let int_def fields k d = Option.value (int_opt fields k) ~default:d
let float_def fields k d = Option.value (float_opt fields k) ~default:d

let req what fields k conv =
  match value fields k with
  | Some v -> conv k v
  | None -> bad "%s requires %s=..." what k

let parse_topology = function
  | [] -> bad "topology requires a kind (er|geo|grid|path|clustered|rmat|file|artifact)"
  | "file" :: [ path ] -> File path
  | "artifact" :: [ path ] -> Artifact_file path
  | ("file" | "artifact") :: _ -> bad "topology file/artifact takes exactly one path"
  | kind :: args -> (
    match kind with
    | "er" ->
      let f = fields_of ~what:"topology er" ~allowed:[ "n"; "p" ] args in
      let n = req "topology er" f "n" to_int in
      Er { n; p = float_def f "p" (8.0 /. float_of_int (max n 1)) }
    | "geo" ->
      let f = fields_of ~what:"topology geo" ~allowed:[ "n"; "radius" ] args in
      let n = req "topology geo" f "n" to_int in
      Geo
        {
          n;
          radius = float_def f "radius" (2.0 /. Float.sqrt (float_of_int (max n 1)));
        }
    | "grid" ->
      let f = fields_of ~what:"topology grid" ~allowed:[ "rows"; "cols" ] args in
      Grid
        {
          rows = req "topology grid" f "rows" to_int;
          cols = req "topology grid" f "cols" to_int;
        }
    | "path" ->
      let f = fields_of ~what:"topology path" ~allowed:[ "n" ] args in
      Path (req "topology path" f "n" to_int)
    | "clustered" ->
      let f =
        fields_of ~what:"topology clustered"
          ~allowed:[ "clusters"; "size"; "p-in"; "p-out" ]
          args
      in
      Clustered
        {
          clusters = req "topology clustered" f "clusters" to_int;
          size = req "topology clustered" f "size" to_int;
          p_in = float_def f "p-in" 0.3;
          p_out = float_def f "p-out" 0.02;
        }
    | "rmat" ->
      let f =
        fields_of ~what:"topology rmat" ~allowed:[ "scale"; "edge-factor" ] args
      in
      Rmat
        {
          scale = req "topology rmat" f "scale" to_int;
          edge_factor = int_def f "edge-factor" 8;
        }
    | k -> bad "unknown topology %S (er|geo|grid|path|clustered|rmat|file|artifact)" k)

let parse_step = function
  | [] -> bad "run requires a step (bfs|broadcast|mst|serve)"
  | kind :: args -> (
    match kind with
    | "bfs" ->
      let f =
        fields_of ~what:"run bfs" ~allowed:[ "root"; "reliable"; "retries" ] args
      in
      Bfs
        {
          root = int_def f "root" 0;
          reliable = flag f "reliable";
          retries = int_def f "retries" 32;
        }
    | "broadcast" ->
      let f =
        fields_of ~what:"run broadcast"
          ~allowed:[ "root"; "value"; "reliable"; "retries" ]
          args
      in
      Broadcast
        {
          root = int_def f "root" 0;
          value = int_def f "value" 42;
          reliable = flag f "reliable";
          retries = int_def f "retries" 32;
        }
    | "mst" ->
      let _ = fields_of ~what:"run mst" ~allowed:[] args in
      Mst
    | "serve" ->
      let f =
        fields_of ~what:"run serve"
          ~allowed:
            [
              "tier"; "workload"; "queries"; "cache"; "stretch"; "store";
              "capacity"; "net-skew";
            ]
          args
      in
      let store = value f "store" in
      (* The fleet knobs only mean something against a store of many
         networks; on the single-artifact form they would silently do
         nothing, which this grammar never allows. *)
      if store = None then
        List.iter
          (fun k ->
            if List.mem_assoc k f then
              bad "run serve argument %S needs the store form (store=DIR)" k)
          [ "capacity"; "net-skew" ];
      Serve
        {
          tier = Option.value (value f "tier") ~default:"cache";
          workload = Option.value (value f "workload") ~default:"zipf";
          queries = int_def f "queries" 1000;
          cache = int_def f "cache" 64;
          stretch = float_opt f "stretch";
          store;
          capacity = int_def f "capacity" 4;
          net_skew = float_def f "net-skew" 1.1;
        }
    | k -> bad "unknown step %S (bfs|broadcast|mst|serve)" k)

let parse_fault = function
  | [] -> bad "fault requires a kind (drop|link|crash)"
  | kind :: args -> (
    match kind with
    | "drop" ->
      let f = fields_of ~what:"fault drop" ~allowed:[ "p"; "until" ] args in
      Drop { p = req "fault drop" f "p" to_float; until = int_opt f "until" }
    | "link" ->
      let f =
        fields_of ~what:"fault link" ~allowed:[ "edge"; "from"; "until" ] args
      in
      Link_window
        {
          edge = req "fault link" f "edge" to_int;
          from_ = int_def f "from" 0;
          until = int_opt f "until";
        }
    | "crash" ->
      let f =
        fields_of ~what:"fault crash" ~allowed:[ "node"; "at"; "recover" ] args
      in
      Crash_window
        {
          node = req "fault crash" f "node" to_int;
          at = int_def f "at" 0;
          recover = int_opt f "recover";
        }
    | k -> bad "unknown fault %S (drop|link|crash)" k)

let parse_slo = function
  | [ "verdict"; "correct" ] -> Verdict Correct_only
  | [ "verdict"; "degraded" ] -> Verdict Degraded_ok
  | [ "verdict"; v ] -> bad "assert verdict expects correct|degraded, got %S" v
  | [ "rounds"; v ] -> Rounds (to_int "rounds" v)
  | [ "max-stretch"; v ] -> Max_stretch (to_float "max-stretch" v)
  | [ "p99-us"; v ] -> P99_us (to_float "p99-us" v)
  | [ "min-delivered"; v ] -> Min_delivered (to_float "min-delivered" v)
  | [ "max-retrans"; v ] -> Max_retrans (to_int "max-retrans" v)
  | [ "min-hit-rate"; v ] -> Min_hit_rate (to_float "min-hit-rate" v)
  | w :: _ :: _ | [ w ] ->
    bad
      "unknown assertion %S (verdict|rounds|max-stretch|p99-us|min-delivered|max-retrans|min-hit-rate)"
      w
  | [] -> bad "assert requires an assertion"

let parse ?(name = "scenario") text =
  let name = ref name in
  let seed = ref 0 in
  let max_rounds = ref default_max_rounds in
  let topology = ref None in
  let steps = ref [] in
  let faults = ref [] in
  let slos = ref [] in
  let err = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      if !err = None then
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        match tokens line with
        | [] -> ()
        | key :: rest -> (
          try
            match (key, rest) with
            | "name", [ v ] -> name := v
            | "name", _ -> bad "name takes exactly one word"
            | "seed", [ v ] -> seed := to_int "seed" v
            | "seed", _ -> bad "seed takes exactly one integer"
            | "max-rounds", [ v ] -> max_rounds := to_int "max-rounds" v
            | "max-rounds", _ -> bad "max-rounds takes exactly one integer"
            | "topology", rest ->
              if !topology <> None then bad "duplicate topology line";
              topology := Some (parse_topology rest)
            | "run", rest -> steps := parse_step rest :: !steps
            | "fault", rest -> faults := parse_fault rest :: !faults
            | "assert", rest -> slos := parse_slo rest :: !slos
            | k, _ ->
              bad "unknown keyword %S (name|seed|max-rounds|topology|run|fault|assert)" k
          with Bad m -> err := Some (Printf.sprintf "%s:%d: %s" !name (i + 1) m)))
    lines;
  match !err with
  | Some e -> Error e
  | None -> (
    match !topology with
    | None -> Error (Printf.sprintf "%s: missing topology line" !name)
    | Some topology ->
      if !steps = [] then Error (Printf.sprintf "%s: no run steps" !name)
      else if
        List.length
          (List.filter (function Drop _ -> true | _ -> false) !faults)
        > 1
      then Error (Printf.sprintf "%s: more than one fault drop line" !name)
      else
        Ok
          {
            name = !name;
            seed = !seed;
            topology;
            steps = List.rev !steps;
            faults = List.rev !faults;
            slos = List.rev !slos;
            max_rounds = !max_rounds;
          })

let load path =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error m -> failwith ("Scenario.load: " ^ m)
  in
  let base = Filename.remove_extension (Filename.basename path) in
  match parse ~name:base text with Ok t -> t | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Canonical text. [parse (to_text t) = t]: every default the parser
   fills in is printed back concretely. *)

let describe_slo = function
  | Verdict Correct_only -> "verdict correct"
  | Verdict Degraded_ok -> "verdict degraded"
  | Rounds n -> Printf.sprintf "rounds %d" n
  | Max_stretch s -> Printf.sprintf "max-stretch %g" s
  | P99_us s -> Printf.sprintf "p99-us %g" s
  | Min_delivered f -> Printf.sprintf "min-delivered %g" f
  | Max_retrans n -> Printf.sprintf "max-retrans %d" n
  | Min_hit_rate f -> Printf.sprintf "min-hit-rate %g" f

let topology_text = function
  | Er { n; p } -> Printf.sprintf "topology er n=%d p=%g" n p
  | Geo { n; radius } -> Printf.sprintf "topology geo n=%d radius=%g" n radius
  | Grid { rows; cols } -> Printf.sprintf "topology grid rows=%d cols=%d" rows cols
  | Path n -> Printf.sprintf "topology path n=%d" n
  | Clustered { clusters; size; p_in; p_out } ->
    Printf.sprintf "topology clustered clusters=%d size=%d p-in=%g p-out=%g"
      clusters size p_in p_out
  | Rmat { scale; edge_factor } ->
    Printf.sprintf "topology rmat scale=%d edge-factor=%d" scale edge_factor
  | File p -> "topology file " ^ p
  | Artifact_file p -> "topology artifact " ^ p

let step_text = function
  | Bfs { root; reliable; retries } ->
    Printf.sprintf "run bfs root=%d%s" root
      (if reliable then Printf.sprintf " reliable retries=%d" retries else "")
  | Broadcast { root; value; reliable; retries } ->
    Printf.sprintf "run broadcast root=%d value=%d%s" root value
      (if reliable then Printf.sprintf " reliable retries=%d" retries else "")
  | Mst -> "run mst"
  | Serve { tier; workload; queries; cache; stretch; store; capacity; net_skew } ->
    Printf.sprintf "run serve%s tier=%s workload=%s queries=%d cache=%d%s%s"
      (match store with
      | None -> ""
      | Some d -> Printf.sprintf " store=%s" d)
      tier workload queries cache
      (match store with
      | None -> ""
      | Some _ ->
        Printf.sprintf " capacity=%d net-skew=%g" capacity net_skew)
      (match stretch with
      | None -> ""
      | Some s -> Printf.sprintf " stretch=%g" s)

let fault_text = function
  | Drop { p; until } ->
    Printf.sprintf "fault drop p=%g%s" p
      (match until with None -> "" | Some u -> Printf.sprintf " until=%d" u)
  | Link_window { edge; from_; until } ->
    Printf.sprintf "fault link edge=%d from=%d%s" edge from_
      (match until with None -> "" | Some u -> Printf.sprintf " until=%d" u)
  | Crash_window { node; at; recover } ->
    Printf.sprintf "fault crash node=%d at=%d%s" node at
      (match recover with None -> "" | Some r -> Printf.sprintf " recover=%d" r)

let to_text t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "name %s" t.name;
  line "seed %d" t.seed;
  if t.max_rounds <> default_max_rounds then line "max-rounds %d" t.max_rounds;
  line "%s" (topology_text t.topology);
  List.iter (fun s -> line "%s" (step_text s)) t.steps;
  List.iter (fun f -> line "%s" (fault_text f)) t.faults;
  List.iter (fun s -> line "assert %s" (describe_slo s)) t.slos;
  Buffer.contents b

