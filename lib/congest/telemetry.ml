module Metrics = Ln_obs.Metrics
module Obs_json = Ln_obs.Obs_json

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

type t = { events : event list; rounds : int; wall : float }

(* ------------------------------------------------------------------ *)
(* Recording state                                                     *)

type state = {
  mutable rev_events : event list;  (* newest first *)
  mutable next_id : int;  (* span ids from 1; parent 0 = root *)
  mutable stack : int list;  (* open span ids, innermost first *)
  links : (int * int, int ref) Hashtbl.t;
  mutable rounds : int;  (* executed engine rounds observed *)
  rounds_base : int;  (* Engine.totals.rounds at start *)
  t0 : float;
}

let current : state option ref = ref None

let record f =
  if Option.is_some !current then
    invalid_arg "Telemetry.record: already recording";
  let st =
    {
      rev_events = [];
      next_id = 1;
      stack = [];
      links = Hashtbl.create 256;
      rounds = 0;
      rounds_base = Engine.totals.rounds;
      t0 = Unix.gettimeofday ();
    }
  in
  let on_round ~run ~round ~messages ~words ~steps ~active ~drops =
    if round > 0 then st.rounds <- st.rounds + 1;
    st.rev_events <-
      Round { run; round; messages; words; steps; active; drops } :: st.rev_events
  in
  let on_message ~round:_ ~from ~dest ~words:_ =
    match Hashtbl.find_opt st.links (from, dest) with
    | Some r -> incr r
    | None -> Hashtbl.add st.links (from, dest) (ref 1)
  in
  current := Some st;
  let v =
    Fun.protect ~finally:(fun () -> current := None) @@ fun () ->
    Engine.with_tap ~message:on_message ~round:on_round f
  in
  let link_events =
    Hashtbl.fold (fun (f, d) r acc -> ((f, d), !r) :: acc) st.links []
    |> List.sort (fun ((f1, d1), _) ((f2, d2), _) ->
           let c = Int.compare f1 f2 in
           if c <> 0 then c else Int.compare d1 d2)
    |> List.map (fun ((from, dest), messages) -> Link { from; dest; messages })
  in
  ( v,
    {
      events = List.rev_append st.rev_events link_events;
      rounds = st.rounds;
      wall = Unix.gettimeofday () -. st.t0;
    } )

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span ?ledger name f =
  let before = Engine.snapshot_totals () in
  let id =
    match !current with
    | None -> 0
    | Some st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      let parent = match st.stack with [] -> 0 | p :: _ -> p in
      st.stack <- id :: st.stack;
      st.rev_events <-
        Span_begin
          {
            id;
            parent;
            name;
            r0 = Engine.totals.rounds - st.rounds_base;
            t = Unix.gettimeofday () -. st.t0;
          }
        :: st.rev_events;
      id
  in
  let close () =
    (* A span opened outside a recording (id = 0) leaves no event; the
       measurement side still runs. *)
    let d = Engine.totals_since before in
    (match !current with
    | Some st when id > 0 ->
      (match st.stack with
      | top :: rest when top = id -> st.stack <- rest
      | _ -> ());
      st.rev_events <-
        Span_end
          {
            id;
            name;
            r1 = Engine.totals.rounds - st.rounds_base;
            rounds = d.rounds;
            runs = d.runs;
            steps = d.steps;
            messages = d.messages;
            words = d.words;
            drops = d.dropped_messages;
            retrans = d.retransmissions;
            wall = d.wall;
            t = Unix.gettimeofday () -. st.t0;
          }
        :: st.rev_events
    | _ -> ());
    d
  in
  match f () with
  | v ->
    let d = close () in
    (match ledger with
    | Some l -> Ledger.native l ~label:name d.rounds
    | None -> ());
    v
  | exception e ->
    ignore (close ());
    raise e

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)

(* A span's totals in [span_end] key order; also the args of the
   Chrome E event that closes it. *)
let span_totals = function
  | Span_end { rounds; runs; steps; messages; words; drops; retrans; _ } ->
    Obs_json.
      [
        ("rounds", Int rounds); ("runs", Int runs); ("steps", Int steps);
        ("messages", Int messages); ("words", Int words); ("drops", Int drops);
        ("retrans", Int retrans);
      ]
  | _ -> []

(* [det] drops the non-deterministic fields ([t], [wall]), so one
   encoder yields the JSONL lines, the Chrome file's embedded stream
   and the canonical backend-comparison stream. *)
let event_json ~det e =
  let open Obs_json in
  let clock k v = if det then [] else [ (k, Num v) ] in
  Obj
    (match e with
    | Span_begin { id; parent; name; r0; t } ->
      [ ("type", Str "span_begin"); ("id", Int id); ("parent", Int parent);
        ("name", Str name); ("r0", Int r0) ]
      @ clock "t" t
    | Span_end { id; name; r1; wall; t; _ } ->
      [ ("type", Str "span_end"); ("id", Int id); ("name", Str name); ("r1", Int r1) ]
      @ span_totals e @ clock "wall" wall @ clock "t" t
    | Round { run; round; messages; words; steps; active; drops } ->
      [ ("type", Str "round"); ("run", Int run); ("round", Int round);
        ("messages", Int messages); ("words", Int words); ("steps", Int steps);
        ("active", Int active); ("drops", Int drops) ]
    | Link { from; dest; messages } ->
      [ ("type", Str "link"); ("from", Int from); ("dest", Int dest);
        ("messages", Int messages) ])

(* The recording's own fields: the JSONL meta line's, and the head of
   the Chrome file's "lightnet" section. *)
let meta_fields ~det (t : t) =
  Obs_json.(
    ("version", Int 1) :: ("rounds", Int t.rounds)
    :: (if det then [] else [ ("wall", Num t.wall) ]))

let meta_json ~det t =
  Obs_json.Obj (("type", Obs_json.Str "meta") :: meta_fields ~det t)

let line v = Obs_json.to_text ~compact:true v

let deterministic_lines t =
  line (meta_json ~det:true t)
  :: List.map (fun e -> line (event_json ~det:true e)) t.events

let to_jsonl t =
  let b = Buffer.create 4096 in
  let add v =
    Buffer.add_string b (line v);
    Buffer.add_char b '\n'
  in
  add (meta_json ~det:false t);
  List.iter (fun e -> add (event_json ~det:false e)) t.events;
  Buffer.contents b

(* Chrome trace-event format. Virtual time axis: one executed engine
   round = one microsecond tick; rounds accumulate across engine runs
   (the same clock as [Span_begin.r0]). Both event arrays print one
   event per line. *)
let to_chrome ?metrics t =
  let open Obs_json in
  let b = Buffer.create 8192 in
  let sep = ref "" in
  let add v =
    Buffer.add_string b !sep;
    sep := ",\n";
    Buffer.add_string b (line v)
  in
  let ev ph fields =
    add (Obj (("ph", Str ph) :: ("pid", Int 1) :: ("tid", Int 1) :: fields))
  in
  let track ts name args =
    ev "C" [ ("ts", Int ts); ("name", Str name); ("args", Obj args) ]
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  ev "M" [ ("name", Str "process_name"); ("args", Obj [ ("name", Str "lightnet") ]) ];
  ev "M" [ ("name", Str "thread_name"); ("args", Obj [ ("name", Str "phases") ]) ];
  let run_base = ref 0 and cum = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Span_begin { name; r0; _ } -> ev "B" [ ("ts", Int r0); ("name", Str name) ]
      | Span_end { r1; _ } -> ev "E" [ ("ts", Int r1); ("args", Obj (span_totals e)) ]
      | Round { round; messages; words; steps; active; drops; _ } ->
        if round = 0 then run_base := !cum;
        let ts = !run_base + round in
        if ts > !cum then cum := ts;
        track ts "traffic" [ ("messages", Int messages); ("words", Int words) ];
        track ts "nodes" [ ("active", Int active); ("steps", Int steps) ];
        track ts "drops" [ ("drops", Int drops) ]
      | Link _ -> ())
    t.events;
  (* Registry bridge: when a metrics snapshot accompanies the trace,
     append one counter-track sample per metric at the final virtual
     timestamp — histograms as their quantile estimates — so Perfetto
     shows the run's aggregate metrics next to its round timeseries
     without any second bookkeeping pass. *)
  List.iter
    (fun (m : Metrics.metric) ->
      track !cum
        ("metrics/" ^ Metrics.display_name m)
        (match m.Metrics.value with
        | Metrics.Counter v -> [ ("value", Int v) ]
        | Metrics.Gauge v -> [ ("value", Num v) ]
        | Metrics.Histogram hs ->
          ("count", Int hs.Metrics.h_count)
          :: List.map
               (fun (k, q) -> (k, Num (Metrics.quantile hs q)))
               [ ("p50", 0.50); ("p90", 0.90); ("p99", 0.99) ]))
    (Option.value metrics ~default:[]);
  (* The embedded stream: the meta fields (the object minus its
     closing brace), then the events. *)
  let head = line (Obj (meta_fields ~det:false t)) in
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\",\n\"lightnet\":";
  Buffer.add_string b (String.sub head 0 (String.length head - 1));
  Buffer.add_string b ",\"events\":[\n";
  sep := "";
  List.iter (fun e -> add (event_json ~det:false e)) t.events;
  Buffer.add_string b "\n]}}\n";
  Buffer.contents b

let write_file ?metrics t path =
  Ln_obs.Atomic_file.write path (fun oc ->
      output_string oc
        (if Filename.check_suffix path ".jsonl" then to_jsonl t
         else to_chrome ?metrics t))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let fail fmt = Printf.ksprintf (fun s -> raise (Obs_json.Error s)) fmt

let event_of_json j =
  let open Obs_json in
  let i k = to_int (member k j) in
  let f k = Option.value ~default:0.0 (to_float_opt (member k j)) in
  match to_string (member "type" j) with
  | "meta" -> `Meta (i "rounds", f "wall")
  | "span_begin" ->
    `Event
      (Span_begin
         {
           id = i "id";
           parent = i "parent";
           name = to_string (member "name" j);
           r0 = i "r0";
           t = f "t";
         })
  | "span_end" ->
    `Event
      (Span_end
         {
           id = i "id";
           name = to_string (member "name" j);
           r1 = i "r1";
           rounds = i "rounds";
           runs = i "runs";
           steps = i "steps";
           messages = i "messages";
           words = i "words";
           drops = i "drops";
           retrans = i "retrans";
           wall = f "wall";
           t = f "t";
         })
  | "round" ->
    `Event
      (Round
         {
           run = i "run";
           round = i "round";
           messages = i "messages";
           words = i "words";
           steps = i "steps";
           active = i "active";
           drops = i "drops";
         })
  | "link" ->
    `Event (Link { from = i "from"; dest = i "dest"; messages = i "messages" })
  | ty -> fail "unknown event type %S" ty

(* [items] pairs each item with its 1-based JSONL line (0 in a Chrome
   file). A trace cut at a line boundary still parses, so a loaded
   trace must also be whole: it has its meta, every span_begin has its
   span_end, and the meta's round count is the number of [round > 0]
   samples. *)
let of_items file items =
  let meta = ref None and samples = ref 0 in
  let opened = ref [] in
  let events =
    List.filter_map
      (fun (line, item) ->
        match item with
        | `Meta m ->
          meta := Some m;
          None
        | `Event e ->
          (match e with
          | Span_begin { id; name; _ } -> opened := (line, id, name) :: !opened
          | Span_end { id; _ } ->
            opened := List.filter (fun (_, i, _) -> i <> id) !opened
          | Round { round; _ } -> if round > 0 then incr samples
          | Link _ -> ());
          Some e)
      items
  in
  let rounds, wall =
    match !meta with
    | Some m -> m
    | None -> failwith (Printf.sprintf "%s: no meta line" file)
  in
  (match List.rev !opened with
  | (line, id, name) :: _ ->
    let at = if line > 0 then Printf.sprintf "%s:%d" file line else file in
    failwith
      (Printf.sprintf "%s: span_begin %d (%S) has no span_end" at id name)
  | [] -> ());
  if !samples <> rounds then
    failwith
      (Printf.sprintf "%s: meta declares %d rounds, the trace has %d" file
         rounds !samples);
  { events; rounds; wall }

(* A JSONL error names the file and its 1-based line; any other names
   the file. *)
let load_file file =
  let open Obs_json in
  let line lno l =
    if String.trim l = "" then None
    else
      try Some (lno + 1, event_of_json (parse l))
      with Error msg -> failwith (Printf.sprintf "%s:%d: %s" file (lno + 1) msg)
  in
  try
    if Filename.check_suffix file ".jsonl" then
      In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.mapi line |> List.filter_map Fun.id |> of_items file
    else
      match member "lightnet" (parse_file file) with
      | Obj _ as ln -> (
        let meta =
          `Meta
            ( to_int (member "rounds" ln),
              Option.value ~default:0.0 (to_float_opt (member "wall" ln)) )
        in
        match member "events" ln with
        | Arr evs ->
          of_items file
            ((0, meta) :: List.map (fun e -> (0, event_of_json e)) evs)
        | _ -> fail "lightnet.events missing")
      | _ -> fail "no \"lightnet\" section (not a lightnet trace?)"
  with Error msg -> failwith (Printf.sprintf "%s: %s" file msg)

(* ------------------------------------------------------------------ *)
(* Span tree, coverage, report                                         *)

type node = {
  n_name : string;
  n_rounds : int;
  n_messages : int;
  n_wall : float;
  n_children : node list;
}

(* Rebuild the span forest. A span ends after all of its children and
   before its next sibling begins, so building each node at its
   [Span_end] sees its children complete and in open order. *)
let span_forest (t : t) =
  let parent = Hashtbl.create 64 and kids = Hashtbl.create 64 in
  let children id = Option.value ~default:[] (Hashtbl.find_opt kids id) in
  List.iter
    (function
      | Span_begin { id; parent = p; _ } -> Hashtbl.replace parent id p
      | Span_end { id; name; rounds; messages; wall; _ } ->
        let node =
          {
            n_name = name;
            n_rounds = rounds;
            n_messages = messages;
            n_wall = wall;
            n_children = List.rev (children id);
          }
        in
        let p = Option.value ~default:0 (Hashtbl.find_opt parent id) in
        Hashtbl.replace kids p (node :: children p)
      | _ -> ())
    t.events;
  List.rev (children 0)

let leaf_round_coverage (t : t) =
  if t.rounds = 0 then None
  else begin
    let leaf_rounds = ref 0 in
    let rec visit n =
      if n.n_children = [] then leaf_rounds := !leaf_rounds + n.n_rounds
      else List.iter visit n.n_children
    in
    List.iter visit (span_forest t);
    Some (float_of_int !leaf_rounds /. float_of_int t.rounds)
  end

let pp_report ppf (t : t) =
  let runs = ref 0
  and messages = ref 0
  and words = ref 0
  and drops = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Round r ->
        if r.round = 0 then incr runs;
        messages := !messages + r.messages;
        words := !words + r.words;
        drops := !drops + r.drops
      | _ -> ())
    t.events;
  Format.fprintf ppf
    "trace: %d engine runs, %d rounds, %d msgs, %d words (wall %.3fs)"
    !runs t.rounds !messages !words t.wall;
  if !drops > 0 then Format.fprintf ppf ", %d dropped" !drops;
  Format.fprintf ppf "@.";
  let roots = span_forest t in
  if roots <> [] then begin
    Format.fprintf ppf "@.phase tree (rounds, share of recorded, messages):@.";
    let total = max t.rounds 1 in
    let rec pp_node depth n =
      Format.fprintf ppf "  %s%-*s %8d %5.1f%% %10d msgs %8.3fs@."
        (String.make (2 * depth) ' ')
        (max 1 (36 - (2 * depth)))
        n.n_name n.n_rounds
        (100.0 *. float_of_int n.n_rounds /. float_of_int total)
        n.n_messages n.n_wall;
      List.iter (pp_node (depth + 1)) n.n_children
    in
    List.iter (pp_node 0) roots;
    match leaf_round_coverage t with
    | Some c ->
      Format.fprintf ppf "leaf span coverage: %.1f%% of %d recorded rounds@."
        (100.0 *. c) t.rounds
    | None -> Format.fprintf ppf "leaf span coverage: no engine rounds@."
  end;
  let links = List.filter_map
      (function Link { messages; _ } -> Some messages | _ -> None)
      t.events
  in
  if links <> [] then begin
    (* log2 buckets: bucket k counts links with load in [2^k, 2^(k+1)). *)
    let buckets = Hashtbl.create 16 in
    let maxb = ref 0 in
    List.iter
      (fun m ->
        let k = if m <= 0 then 0 else int_of_float (Float.log2 (float_of_int m)) in
        if k > !maxb then maxb := k;
        Hashtbl.replace buckets k
          (1 + Option.value ~default:0 (Hashtbl.find_opt buckets k)))
      links;
    Format.fprintf ppf "@.edge-load histogram (%d directed links):@."
      (List.length links);
    for k = 0 to !maxb do
      match Hashtbl.find_opt buckets k with
      | None -> ()
      | Some c ->
        Format.fprintf ppf "  [%6d, %6d) %6d links@." (1 lsl k)
          (1 lsl (k + 1))
          c
    done
  end
