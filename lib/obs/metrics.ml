(* Process-wide metrics registry. See metrics.mli for the cost model
   and determinism contract; the short version:

   - update ops are one ref read when disabled;
   - enabled updates write the handle's own cell or histogram in
     place, on the one domain that owns the registry;
   - snapshots read every registered handle, sorted by name and
     labels. *)

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

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.underflow <- 0;
    t.overflow <- 0;
    t.count <- 0;
    t.sum <- 0.;
    t.vmin <- Float.nan;
    t.vmax <- Float.nan
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

(* Each handle holds its own value: updates write it in place and a
   snapshot reads it. *)
type counter = { mutable cv : int }
type gauge = { mutable gv : float }
type histogram = Hist.t

type ekind = EC of counter | EG of gauge | EH of histogram

type entry = {
  e_name : string;
  e_labels : (string * string) list;  (* sorted by key *)
  e_help : string;
  e_stable : bool;
  e_kind : ekind;
}

let enabled = ref false
let on () = !enabled
let set_on b = enabled := b

let entries : entry list ref = ref []  (* newest first *)

let by_key : (string * (string * string) list, entry) Hashtbl.t =
  Hashtbl.create 64

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
  let e =
    match Hashtbl.find_opt by_key (name, labels) with
    | Some e -> e
    | None ->
      let e =
        { e_name = name; e_labels = labels; e_help = help; e_stable = stable;
          e_kind = mk () }
      in
      entries := e :: !entries;
      Hashtbl.add by_key (name, labels) e;
      e
  in
  match same e.e_kind with
  | Some h -> h
  | None ->
    invalid_arg
      (Printf.sprintf "Metrics: %S already registered with another kind" name)

let counter ?(help = "") ?(labels = []) ?(stable = true) name : counter =
  register ~name ~labels ~help ~stable
    ~mk:(fun () -> EC { cv = 0 })
    ~same:(function EC c -> Some c | _ -> None)

let gauge ?(help = "") ?(labels = []) ?(stable = true) name : gauge =
  register ~name ~labels ~help ~stable
    ~mk:(fun () -> EG { gv = 0. })
    ~same:(function EG g -> Some g | _ -> None)

let histogram ?(help = "") ?(labels = []) ?(stable = true) name : histogram =
  register ~name ~labels ~help ~stable
    ~mk:(fun () -> EH (Hist.create ()))
    ~same:(function EH h -> Some h | _ -> None)

let add c n = if !enabled then c.cv <- c.cv + n
let incr c = add c 1
let set g v = if !enabled then g.gv <- v
let observe h v = if !enabled then Hist.observe h v

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
  !entries
  |> List.map (fun e ->
         {
           name = e.e_name;
           labels = e.e_labels;
           help = e.e_help;
           stable = e.e_stable;
           value =
             (match e.e_kind with
             | EC c -> Counter c.cv
             | EG g -> Gauge g.gv
             | EH h -> Histogram (Hist.to_snapshot h));
         })
  |> List.sort (fun a b ->
         let c = String.compare a.name b.name in
         if c <> 0 then c else Stdlib.compare a.labels b.labels)

let reset () =
  List.iter
    (fun e ->
      match e.e_kind with
      | EC c -> c.cv <- 0
      | EG g -> g.gv <- 0.
      | EH h -> Hist.clear h)
    !entries

let find (snap : snapshot) ?(labels = []) name =
  let labels = norm_labels labels in
  List.find_opt (fun m -> m.name = name && m.labels = labels) snap

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

let to_json (snap : snapshot) =
  let lines =
    List.filter_map
      (fun m ->
        if m.stable then Some (Obs_json.to_text ~compact:true (metric_json m))
        else None)
      snap
  in
  "{\"lightnet_metrics\":1,\n\"metrics\":[\n" ^ String.concat ",\n" lines ^ "\n]}\n"

let of_json s : snapshot =
  let open Obs_json in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Metrics.of_json: " ^ m)) fmt in
  let j = try parse s with Error e -> fail "%s" e in
  if to_int_opt (member "lightnet_metrics" j) <> Some 1 then
    fail "not a lightnet metrics snapshot";
  let metric_of_json i mj =
    let fields = match mj with Obj l -> l | _ -> fail "metrics[%d]: expected object" i in
    (* Every decoding failure names the metric and the key. *)
    let where k =
      match to_string_opt (member "name" mj) with
      | Some n -> Printf.sprintf "metrics[%d] (%s), key %S" i n k
      | None -> Printf.sprintf "metrics[%d], key %S" i k
    in
    let key k f = try f (member k mj) with Error e -> fail "%s: %s" (where k) e in
    let name = key "name" to_string in
    (* NaN is written as null; a missing number is still an error. *)
    let float_or_nan k =
      key k (function Null when List.mem_assoc k fields -> Float.nan | v -> to_float v)
    in
    let labels =
      key "labels" (function
        | Obj l -> List.map (fun (k, v) -> (k, to_string v)) l
        | _ -> [])
    in
    let help = Option.value ~default:"" (to_string_opt (member "help" mj)) in
    let stable = match member "stable" mj with Bool b -> b | _ -> true in
    let value =
      match key "kind" to_string with
      | "counter" -> Counter (key "value" to_int)
      | "gauge" -> Gauge (float_or_nan "value")
      | "histogram" ->
        let fopt k = Option.value ~default:Float.nan (to_float_opt (member k mj)) in
        let bucket b p =
          try
            match to_list p with
            | [ le; cum ] -> (to_float le, to_int cum)
            | _ -> raise Exit
          with Error _ | Exit ->
            raise (Error (Printf.sprintf "bucket %d is not an [upper bound, count] pair" b))
        in
        let h_count = key "count" to_int in
        let h_buckets = key "buckets" (fun v -> List.mapi bucket (to_list v)) in
        (* Bounds ascend and cumulative counts rise to [count]. *)
        let _, top =
          List.fold_left
            (fun (le0, c0) (le, c) ->
              if not (le > le0 && c > c0) then
                fail "%s: buckets are not cumulative" (where "buckets");
              (le, c))
            (Float.neg_infinity, 0) h_buckets
        in
        if top <> h_count then
          fail "%s: buckets reach %d, count is %d" (where "buckets") top h_count;
        Histogram
          { h_count; h_sum = float_or_nan "sum"; h_min = fopt "min";
            h_max = fopt "max"; h_buckets }
      | kind -> fail "%s: unknown kind %S" (where "kind") kind
    in
    { name; labels = norm_labels labels; help; stable; value }
  in
  match member "metrics" j with
  | Arr l -> List.mapi metric_of_json l
  | _ -> fail "key \"metrics\": expected array"

let write_file snap path =
  Atomic_file.write path (fun oc -> output_string oc (to_json snap))

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
