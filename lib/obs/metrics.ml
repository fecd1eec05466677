(* Process-wide metrics registry. See metrics.mli for the cost model
   and determinism contract; the short version:

   - update ops are one ref read when disabled;
   - enabled updates touch only a Domain.DLS-local shard (plain array
     stores, no locks, no atomics);
   - the registry mutex is taken at registration and shard creation,
     never per update;
   - snapshots sum integer shard cells, which commutes, so they are
     exact at quiescence regardless of domain scheduling. *)

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)

(* Tracked value range. Observations outside it land in the
   underflow/overflow buckets and are resolved to the exact observed
   min/max by quantile estimation (tracked as scalars alongside the
   buckets). 1e-3 .. 1e12 covers nanoseconds to ~11 days on the
   microsecond scale the serving layer uses. *)
let v_lo = 1e-3
let v_hi = 1e12

(* One relative-error bound for every histogram: bucket (gamma^(i-1),
   gamma^i] has index i, and index [idx_lo] is counts.(0). *)
let error = 0.01
let gamma = (1. +. error) /. (1. -. error)
let log_gamma = log gamma
let idx_lo = int_of_float (Float.ceil (log v_lo /. log_gamma))
let idx_hi = int_of_float (Float.ceil (log v_hi /. log_gamma))

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

(* Shared quantile estimator: find the bucket holding the rank-th
   smallest observation and return its representative midpoint
   [2 * le / (gamma + 1)], clamped into the exact observed range. The
   clamp both resolves the out-of-range buckets to min/max and can
   only shrink the error for in-range ones. *)
let quantile (hs : hist_snapshot) q =
  if hs.h_count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int hs.h_count)) in
      if r < 1 then 1 else if r > hs.h_count then hs.h_count else r
    in
    let clamp v = Float.max hs.h_min (Float.min hs.h_max v) in
    let rec go = function
      | [] -> hs.h_max
      | (le, cum) :: rest ->
        if rank <= cum then
          if Float.is_finite le then clamp (le *. 2. /. (gamma +. 1.))
          else hs.h_max
        else go rest
    in
    go hs.h_buckets
  end

module Hist = struct
  type t = {
    counts : int array;
    mutable underflow : int;  (* v <= v_lo (including non-positive) *)
    mutable overflow : int;  (* v > v_hi *)
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let error = error

  let create () =
    {
      counts = Array.make (idx_hi - idx_lo + 1) 0;
      underflow = 0;
      overflow = 0;
      count = 0;
      sum = 0.;
      vmin = Float.nan;
      vmax = Float.nan;
    }

  let observe t v =
    if not (Float.is_nan v) then begin
      t.count <- t.count + 1;
      t.sum <- t.sum +. v;
      if not (t.vmin <= v) then t.vmin <- v;
      if not (t.vmax >= v) then t.vmax <- v;
      if v <= v_lo then t.underflow <- t.underflow + 1
      else if v > v_hi then t.overflow <- t.overflow + 1
      else begin
        let i = int_of_float (Float.ceil (log v /. log_gamma)) - idx_lo in
        let i =
          if i < 0 then 0
          else if i >= Array.length t.counts then Array.length t.counts - 1
          else i
        in
        t.counts.(i) <- t.counts.(i) + 1
      end
    end

  let count t = t.count
  let sum t = t.sum
  let min_value t = t.vmin
  let max_value t = t.vmax

  let to_snapshot t : hist_snapshot =
    let buckets = ref [] in
    let cum = ref t.underflow in
    if t.underflow > 0 then buckets := [ (v_lo, !cum) ];
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          cum := !cum + c;
          let le = exp (float_of_int (idx_lo + i) *. log_gamma) in
          buckets := (le, !cum) :: !buckets
        end)
      t.counts;
    if t.overflow > 0 then buckets := (Float.infinity, t.count) :: !buckets;
    {
      h_count = t.count;
      h_sum = t.sum;
      h_min = t.vmin;
      h_max = t.vmax;
      h_buckets = List.rev !buckets;
    }

  let quantile t q = quantile (to_snapshot t) q

  let merge a b =
    let counts = Array.copy a.counts in
    Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.counts;
    let fmin x y = if Float.is_nan x then y else if Float.is_nan y then x else Float.min x y in
    let fmax x y = if Float.is_nan x then y else if Float.is_nan y then x else Float.max x y in
    {
      counts;
      underflow = a.underflow + b.underflow;
      overflow = a.overflow + b.overflow;
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      vmin = fmin a.vmin b.vmin;
      vmax = fmax a.vmax b.vmax;
    }
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type gcell = { mutable gv : float }

type ekind =
  | EC of int  (* counter slot *)
  | EG of gcell
  | EH of int  (* histogram slot *)

type entry = {
  e_name : string;
  e_labels : (string * string) list;  (* sorted by key *)
  e_help : string;
  e_stable : bool;
  e_kind : ekind;
}

type counter = { c_id : int }
type gauge = gcell
type histogram = { hm_id : int }

let enabled = ref false
let on () = !enabled
let set_on b = enabled := b

let reg_mtx = Mutex.create ()
let entries : entry list ref = ref []  (* newest first *)

let by_key : (string * (string * string) list, entry) Hashtbl.t =
  Hashtbl.create 64

let n_counters = ref 0
let n_hists = ref 0

let name_ok name =
  String.length name > 0
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let label_key_ok k =
  String.length k > 0
  && (match k.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Idempotent registration: an existing (name, labels) entry of the
   same kind is returned as-is, a kind clash is a programming error. *)
let register ~name ~labels ~help ~stable ~mk ~same =
  if not (name_ok name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (label_key_ok k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label key %S" k))
    labels;
  let labels = norm_labels labels in
  Mutex.lock reg_mtx;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg_mtx)
    (fun () ->
      match Hashtbl.find_opt by_key (name, labels) with
      | Some e -> (
        match same e.e_kind with
        | Some h -> h
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered with another kind"
               name))
      | None ->
        let kind, h = mk () in
        let e = { e_name = name; e_labels = labels; e_help = help; e_stable = stable; e_kind = kind } in
        entries := e :: !entries;
        Hashtbl.add by_key (name, labels) e;
        h)

let counter ?(help = "") ?(labels = []) ?(stable = true) name : counter =
  register ~name ~labels ~help ~stable
    ~mk:(fun () ->
      let id = !n_counters in
      incr n_counters;
      (EC id, { c_id = id }))
    ~same:(function EC id -> Some { c_id = id } | _ -> None)

let gauge ?(help = "") ?(labels = []) ?(stable = true) name : gauge =
  register ~name ~labels ~help ~stable
    ~mk:(fun () ->
      let g = { gv = 0. } in
      (EG g, g))
    ~same:(function EG g -> Some g | _ -> None)

let histogram ?(help = "") ?(labels = []) ?(stable = true) name : histogram =
  register ~name ~labels ~help ~stable
    ~mk:(fun () ->
      let id = !n_hists in
      incr n_hists;
      (EH id, { hm_id = id }))
    ~same:(function EH id -> Some { hm_id = id } | _ -> None)

(* ------------------------------------------------------------------ *)
(* Per-domain shards                                                   *)

type shard = {
  mutable counts : int array;  (* counter slot -> value *)
  mutable hists : Hist.t option array;  (* histogram slot -> local hist *)
}

let shards_mtx = Mutex.create ()
let shards : shard list ref = ref []

(* The DLS initialiser runs at most once per domain, on that domain's
   first enabled update — the one place a worker ever takes a lock. *)
let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { counts = Array.make 16 0; hists = Array.make 8 None } in
      Mutex.lock shards_mtx;
      shards := s :: !shards;
      Mutex.unlock shards_mtx;
      s)

let rec grown len want = if len >= want then len else grown (2 * len) want

let add (c : counter) n =
  if !enabled then begin
    let s = Domain.DLS.get shard_key in
    let id = c.c_id in
    if id >= Array.length s.counts then begin
      let a = Array.make (grown (Array.length s.counts) (id + 1)) 0 in
      Array.blit s.counts 0 a 0 (Array.length s.counts);
      s.counts <- a
    end;
    s.counts.(id) <- s.counts.(id) + n
  end

let incr c = add c 1
let set (g : gauge) v = if !enabled then g.gv <- v

let observe (h : histogram) v =
  if !enabled then begin
    let s = Domain.DLS.get shard_key in
    let id = h.hm_id in
    if id >= Array.length s.hists then begin
      let a = Array.make (grown (Array.length s.hists) (id + 1)) None in
      Array.blit s.hists 0 a 0 (Array.length s.hists);
      s.hists <- a
    end;
    let hh =
      match s.hists.(id) with
      | Some hh -> hh
      | None ->
        let hh = Hist.create () in
        s.hists.(id) <- Some hh;
        hh
    in
    Hist.observe hh v
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type metric = {
  name : string;
  labels : (string * string) list;
  help : string;
  stable : bool;
  value : value;
}

type snapshot = metric list

let snapshot () : snapshot =
  let with_lock m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let shards_now = with_lock shards_mtx (fun () -> !shards) in
  let entries_now = with_lock reg_mtx (fun () -> !entries) in
  let value_of = function
    | EC id ->
      Counter
        (List.fold_left
           (fun acc s ->
             if id < Array.length s.counts then acc + s.counts.(id) else acc)
           0 shards_now)
    | EG g -> Gauge g.gv
    | EH id ->
      let per_shard =
        List.filter_map
          (fun s -> if id < Array.length s.hists then s.hists.(id) else None)
          shards_now
      in
      Histogram
        (Hist.to_snapshot (List.fold_left Hist.merge (Hist.create ()) per_shard))
  in
  entries_now
  |> List.map (fun e ->
         {
           name = e.e_name;
           labels = e.e_labels;
           help = e.e_help;
           stable = e.e_stable;
           value = value_of e.e_kind;
         })
  |> List.sort (fun a b ->
         let c = String.compare a.name b.name in
         if c <> 0 then c else Stdlib.compare a.labels b.labels)

let reset () =
  Mutex.lock shards_mtx;
  List.iter
    (fun s ->
      Array.fill s.counts 0 (Array.length s.counts) 0;
      Array.fill s.hists 0 (Array.length s.hists) None)
    !shards;
  Mutex.unlock shards_mtx;
  Mutex.lock reg_mtx;
  List.iter (fun e -> match e.e_kind with EG g -> g.gv <- 0. | _ -> ()) !entries;
  Mutex.unlock reg_mtx

let find (snap : snapshot) ?(labels = []) name =
  let labels = norm_labels labels in
  List.find_opt (fun m -> m.name = name && m.labels = labels) snap

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels ?le labels =
  let pairs =
    labels @ (match le with None -> [] | Some le -> [ ("le", le) ])
  in
  match pairs with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value v)) pairs)
    ^ "}"

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" f

let to_prometheus (snap : snapshot) =
  let b = Buffer.create 4096 in
  let last_name = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_name then begin
        last_name := m.name;
        if m.help <> "" then
          Printf.bprintf b "# HELP %s %s\n" m.name m.help;
        let ty =
          match m.value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        Printf.bprintf b "# TYPE %s %s\n" m.name ty
      end;
      match m.value with
      | Counter v -> Printf.bprintf b "%s%s %d\n" m.name (prom_labels m.labels) v
      | Gauge v ->
        Printf.bprintf b "%s%s %s\n" m.name (prom_labels m.labels) (prom_float v)
      | Histogram hs ->
        List.iter
          (fun (le, cum) ->
            if Float.is_finite le then
              Printf.bprintf b "%s_bucket%s %d\n" m.name
                (prom_labels ~le:(prom_float le) m.labels)
                cum)
          hs.h_buckets;
        Printf.bprintf b "%s_bucket%s %d\n" m.name
          (prom_labels ~le:"+Inf" m.labels)
          hs.h_count;
        Printf.bprintf b "%s_sum%s %s\n" m.name (prom_labels m.labels)
          (prom_float hs.h_sum);
        Printf.bprintf b "%s_count%s %d\n" m.name (prom_labels m.labels)
          hs.h_count)
    snap;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Deterministic JSON snapshot                                         *)

(* One object per metric, printed by the shared codec, whose exact
   floats make of_json . to_json the identity on values. NaN prints as
   null (a gauge's value or a histogram's sum); of_json reads it
   back. *)
let metric_json m =
  let open Obs_json in
  let opt cond kv = if cond then [ kv ] else [] in
  let value =
    match m.value with
    | Counter v -> [ ("kind", Str "counter"); ("value", Int v) ]
    | Gauge v -> [ ("kind", Str "gauge"); ("value", Num v) ]
    | Histogram hs ->
      [ ("kind", Str "histogram"); ("error", Num error);
        ("count", Int hs.h_count); ("sum", Num hs.h_sum) ]
      @ (if hs.h_count > 0 then [ ("min", Num hs.h_min); ("max", Num hs.h_max) ]
         else [])
      @ [ ("buckets",
           Arr (List.map (fun (le, cum) -> Arr [ Num le; Int cum ]) hs.h_buckets)) ]
  in
  Obj
    ((("name", Str m.name)
      :: opt (m.labels <> [])
           ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) m.labels)))
    @ opt (m.help <> "") ("help", Str m.help)
    @ opt (not m.stable) ("stable", Bool false)
    @ value)

let to_json ?(all = false) (snap : snapshot) =
  let lines =
    List.filter_map
      (fun m ->
        if all || m.stable then Some (Obs_json.to_text ~compact:true (metric_json m))
        else None)
      snap
  in
  "{\"lightnet_metrics\":1,\n\"metrics\":[\n" ^ String.concat ",\n" lines ^ "\n]}\n"

let of_json s : snapshot =
  let open Obs_json in
  let j = try parse s with Error e -> failwith ("Metrics.of_json: " ^ e) in
  (match to_int_opt (member "lightnet_metrics" j) with
  | Some 1 -> ()
  | _ -> failwith "Metrics.of_json: not a lightnet metrics snapshot");
  let metric_of_json mj =
    let name =
      match to_string_opt (member "name" mj) with
      | Some n -> n
      | None -> failwith "Metrics.of_json: metric without name"
    in
    let labels =
      match member "labels" mj with
      | Obj l -> List.map (fun (k, v) -> (k, to_string v)) l
      | _ -> []
    in
    let help = Option.value ~default:"" (to_string_opt (member "help" mj)) in
    let stable = match member "stable" mj with Bool b -> b | _ -> true in
    (* NaN is written as null; a missing number is still an error. *)
    let float_or_nan k =
      match mj with
      | Obj l when List.assoc_opt k l = Some Null -> Float.nan
      | _ -> to_float (member k mj)
    in
    let value =
      match to_string_opt (member "kind" mj) with
      | Some "counter" -> Counter (to_int (member "value" mj))
      | Some "gauge" -> Gauge (float_or_nan "value")
      | Some "histogram" ->
        let fopt k d =
          Option.value ~default:d (to_float_opt (member k mj))
        in
        Histogram
          {
            h_count = to_int (member "count" mj);
            h_sum = float_or_nan "sum";
            h_min = fopt "min" Float.nan;
            h_max = fopt "max" Float.nan;
            h_buckets =
              List.map
                (fun p ->
                  match to_list p with
                  | [ le; cum ] -> (to_float le, to_int cum)
                  | _ -> failwith "Metrics.of_json: bad bucket")
                (to_list (member "buckets" mj));
          }
      | _ -> failwith ("Metrics.of_json: bad kind for " ^ name)
    in
    { name; labels = norm_labels labels; help; stable; value }
  in
  try List.map metric_of_json (to_list (member "metrics" j))
  with Error e -> failwith ("Metrics.of_json: " ^ e)

let write_file snap path =
  Atomic_file.write path (fun oc ->
      output_string oc
        (if Filename.check_suffix path ".json" then to_json snap
         else to_prometheus snap))

(* ------------------------------------------------------------------ *)
(* Prometheus text-format checker                                      *)

(* Hand-rolled validator for the subset of the text exposition format
   we emit (and that scrapers require): used by `lightnet metrics` and
   the metrics-smoke gate, deliberately without new dependencies. *)

type series_state = {
  mutable s_last_le : float;
  mutable s_last_cum : float;
  mutable s_inf : float option;
  mutable s_sum : bool;
  mutable s_count : float option;
}

let validate_prometheus text =
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let series : (string, series_state) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let err = ref None in
  let fail_line lno fmt =
    Printf.ksprintf
      (fun s ->
        if !err = None then err := Some (Printf.sprintf "line %d: %s" lno s))
      fmt
  in
  let parse_value v =
    match v with
    | "+Inf" | "Inf" -> Some Float.infinity
    | "-Inf" -> Some Float.neg_infinity
    | "NaN" -> Some Float.nan
    | _ -> float_of_string_opt v
  in
  (* Parse `name{k="v",...} value` → (name, labels, value). *)
  let parse_sample lno line =
    let n = String.length line in
    let i = ref 0 in
    while !i < n && (match line.[!i] with
                    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
                    | _ -> false) do
      Stdlib.incr i
    done;
    let name = String.sub line 0 !i in
    if name = "" || not (name_ok name) then begin
      fail_line lno "bad metric name";
      None
    end
    else begin
      let labels = ref [] in
      let ok = ref true in
      if !i < n && line.[!i] = '{' then begin
        Stdlib.incr i;
        let rec labels_loop () =
          if !i >= n then begin
            fail_line lno "unterminated label set";
            ok := false
          end
          else if line.[!i] = '}' then Stdlib.incr i
          else begin
            let k0 = !i in
            while
              !i < n
              && match line.[!i] with
                 | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
                 | _ -> false
            do
              Stdlib.incr i
            done;
            let k = String.sub line k0 (!i - k0) in
            if k = "" || not (label_key_ok k) then begin
              fail_line lno "bad label key";
              ok := false
            end
            else if !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"'
            then begin
              fail_line lno "expected =\" after label key";
              ok := false
            end
            else begin
              i := !i + 2;
              let b = Buffer.create 16 in
              let rec value_loop () =
                if !i >= n then begin
                  fail_line lno "unterminated label value";
                  ok := false
                end
                else
                  match line.[!i] with
                  | '"' -> Stdlib.incr i
                  | '\\' ->
                    if !i + 1 >= n then begin
                      fail_line lno "unterminated escape";
                      ok := false
                    end
                    else begin
                      (match line.[!i + 1] with
                      | 'n' -> Buffer.add_char b '\n'
                      | '\\' -> Buffer.add_char b '\\'
                      | '"' -> Buffer.add_char b '"'
                      | c ->
                        fail_line lno "bad escape \\%c" c;
                        ok := false);
                      i := !i + 2;
                      if !ok then value_loop ()
                    end
                  | c ->
                    Buffer.add_char b c;
                    Stdlib.incr i;
                    value_loop ()
              in
              value_loop ();
              if !ok then begin
                labels := (k, Buffer.contents b) :: !labels;
                if !i < n && line.[!i] = ',' then Stdlib.incr i;
                labels_loop ()
              end
            end
          end
        in
        labels_loop ()
      end;
      if not !ok then None
      else begin
        while !i < n && line.[!i] = ' ' do
          Stdlib.incr i
        done;
        let rest = String.sub line !i (n - !i) in
        let value_tok =
          match String.index_opt rest ' ' with
          | Some j -> String.sub rest 0 j  (* optional timestamp follows *)
          | None -> rest
        in
        match parse_value value_tok with
        | Some v -> Some (name, List.rev !labels, v)
        | None ->
          fail_line lno "unparseable sample value %S" value_tok;
          None
      end
    end
  in
  let base_of name =
    let strip suffix =
      if Filename.check_suffix name suffix then
        Some (String.sub name 0 (String.length name - String.length suffix))
      else None
    in
    match strip "_bucket" with
    | Some b -> Some (b, `Bucket)
    | None -> (
      match strip "_sum" with
      | Some b -> Some (b, `Sum)
      | None -> (
        match strip "_count" with Some b -> Some (b, `Count) | None -> None))
  in
  let series_key base labels =
    base
    ^ String.concat ""
        (List.map
           (fun (k, v) -> ";" ^ k ^ "=" ^ v)
           (norm_labels (List.filter (fun (k, _) -> k <> "le") labels)))
  in
  let get_series base labels =
    let key = series_key base labels in
    match Hashtbl.find_opt series key with
    | Some st -> st
    | None ->
      let st =
        { s_last_le = Float.neg_infinity; s_last_cum = -1.; s_inf = None;
          s_sum = false; s_count = None }
      in
      Hashtbl.add series key st;
      st
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lno = idx + 1 in
      if !err = None && line <> "" then
        if String.length line >= 1 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: ("HELP" | "TYPE") :: name :: rest ->
            if not (name_ok name) then fail_line lno "bad name in comment"
            else if String.length line > 6 && String.sub line 2 4 = "TYPE" then (
              match rest with
              | [ ("counter" | "gauge" | "histogram" | "summary" | "untyped") as ty ] ->
                Hashtbl.replace types name ty
              | _ -> fail_line lno "bad TYPE")
          | _ -> ()  (* other # lines are comments *)
        end
        else
          match parse_sample lno line with
          | None -> ()
          | Some (name, labels, v) -> (
            Stdlib.incr samples;
            let declared n = Hashtbl.find_opt types n in
            match declared name with
            | Some ("counter" | "gauge" | "untyped") -> ()
            | Some ty -> fail_line lno "bare sample for %s metric %s" ty name
            | None -> (
              match base_of name with
              | Some (base, part) when declared base = Some "histogram" -> (
                let st = get_series base labels in
                match part with
                | `Bucket -> (
                  match List.assoc_opt "le" labels with
                  | None -> fail_line lno "histogram bucket without le"
                  | Some le_s -> (
                    match parse_value le_s with
                    | None -> fail_line lno "bad le %S" le_s
                    | Some le ->
                      if le <= st.s_last_le then
                        fail_line lno "le not increasing in %s" name
                      else if v < st.s_last_cum then
                        fail_line lno "bucket counts not cumulative in %s" name
                      else begin
                        st.s_last_le <- le;
                        st.s_last_cum <- v;
                        if le = Float.infinity then st.s_inf <- Some v
                      end))
                | `Sum -> st.s_sum <- true
                | `Count -> st.s_count <- Some v)
              | _ -> fail_line lno "sample %s has no preceding # TYPE" name)))
    lines;
  if !err = None then
    Hashtbl.iter
      (fun key st ->
        if !err = None then
          match (st.s_inf, st.s_count) with
          | None, _ -> err := Some (Printf.sprintf "series %s: missing le=\"+Inf\" bucket" key)
          | _, None -> err := Some (Printf.sprintf "series %s: missing _count" key)
          | Some inf, Some c when inf <> c ->
            err := Some (Printf.sprintf "series %s: +Inf bucket %g <> count %g" key inf c)
          | _ ->
            if not st.s_sum then
              err := Some (Printf.sprintf "series %s: missing _sum" key))
      series;
  match !err with Some e -> Error e | None -> Ok !samples

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)

let display_name m =
  match m.labels with
  | [] -> m.name
  | labels ->
    m.name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let pp ppf (snap : snapshot) =
  List.iter
    (fun m ->
      match m.value with
      | Counter v -> Format.fprintf ppf "%s %d@." (display_name m) v
      | Gauge v -> Format.fprintf ppf "%s %g@." (display_name m) v
      | Histogram hs ->
        Format.fprintf ppf "%s count=%d p50=%g p90=%g p99=%g max=%g@."
          (display_name m) hs.h_count (quantile hs 0.50) (quantile hs 0.90)
          (quantile hs 0.99)
          (if hs.h_count = 0 then 0. else hs.h_max))
    snap
