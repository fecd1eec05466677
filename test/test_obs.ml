(* Observability-substrate tests: streaming histogram quantiles
   against exact order statistics, JSON round-trips (the shared codec
   and the metrics snapshot), positioned snapshot errors, the
   stable/unstable export split, reset, and crash-atomic file
   replacement. *)

module Metrics = Ln_obs.Metrics
module Hist = Ln_obs.Metrics.Hist
module Obs_json = Ln_obs.Obs_json
module Atomic_file = Ln_obs.Atomic_file

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Fixed QCheck seed: dune runtest must be deterministic, and any
   failure replayable from the printed counterexample alone. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150e |]) t

(* Log-uniform values across the tracked range, so buckets at every
   scale get exercised (a uniform draw on [0.1, 1e7] would almost
   never produce a small value). *)
let gen_value =
  QCheck2.Gen.map (fun e -> Float.pow 10.0 e) (QCheck2.Gen.float_range (-1.0) 7.0)

let gen_values = QCheck2.Gen.(list_size (int_range 1 400) gen_value)

let hist_of l =
  let h = Hist.create () in
  List.iter (Hist.observe h) l;
  h

(* The estimator's definition of the q-th quantile: the value of rank
   ceil (q * n), clamped into [1, n]. *)
let exact_q sorted q =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  let r = max 1 (min n r) in
  sorted.(r - 1)

let prop_quantiles_within_error =
  QCheck2.Test.make ~name:"hist quantiles within relative-error bound"
    ~count:100 gen_values (fun l ->
      let h = hist_of l in
      let sorted = Array.of_list l in
      Array.sort compare sorted;
      (* 1.05x slack over the advertised bound absorbs float rounding
         at bucket boundaries. *)
      let tol = 1.05 *. Hist.error in
      List.for_all
        (fun q ->
          let est = Hist.quantile h q and ex = exact_q sorted q in
          Float.abs (est -. ex) <= (tol *. ex) +. 1e-12)
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

let test_json_roundtrip () =
  let c = Metrics.counter ~help:"a counter" ~labels:[ ("k", "v") ]
      "test_obs_rt_total"
  in
  let g = Metrics.gauge "test_obs_rt_gauge" in
  let h = Metrics.histogram "test_obs_rt_hist" in
  (* Non-finite inputs: a histogram that saw both infinities has a NaN
     sum. *)
  let g_nan = Metrics.gauge "test_obs_rt_nan_gauge" in
  let g_inf = Metrics.gauge "test_obs_rt_inf_gauge" in
  let h_inf = Metrics.histogram "test_obs_rt_inf_hist" in
  Metrics.reset ();
  Metrics.set_on true;
  Metrics.add c 42;
  Metrics.set g 2.5;
  List.iter (Metrics.observe h) [ 0.004; 1.0; 17.25; 3.0e9 ];
  Metrics.set g_nan Float.nan;
  Metrics.set g_inf Float.infinity;
  List.iter (Metrics.observe h_inf) [ Float.infinity; Float.neg_infinity ];
  Metrics.set_on false;
  let snap = Metrics.snapshot () in
  let js = Metrics.to_json snap in
  let back = Metrics.of_json js in
  check "of_json . to_json is the identity on the wire" true
    (Metrics.to_json back = js);
  let value name =
    match Metrics.find back name with
    | Some m -> m.Metrics.value
    | None -> Alcotest.failf "%s missing" name
  in
  check "NaN gauge reads back NaN" true
    (match value "test_obs_rt_nan_gauge" with
    | Metrics.Gauge v -> Float.is_nan v
    | _ -> false);
  check "+inf gauge reads back +inf" true
    (value "test_obs_rt_inf_gauge" = Metrics.Gauge Float.infinity);
  check "histogram of both infinities reads back" true
    (match value "test_obs_rt_inf_hist" with
    | Metrics.Histogram hs ->
      hs.Metrics.h_count = 2
      && Float.is_nan hs.Metrics.h_sum
      && hs.Metrics.h_min = Float.neg_infinity
      && hs.Metrics.h_max = Float.infinity
    | _ -> false);
  (* And the parsed snapshot agrees on the estimator. *)
  let q j =
    match Metrics.find j "test_obs_rt_hist" with
    | Some { Metrics.value = Metrics.Histogram hs; _ } -> Metrics.quantile hs 0.5
    | _ -> Alcotest.fail "hist missing"
  in
  check "median survives the round-trip" true
    (q snap = q (Metrics.of_json js));
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* The shared JSON codec: parse inverts the printer.                   *)

(* Strings built from fragments that each need care: quotes,
   backslashes, control bytes, and multi-byte UTF-8. *)
let gen_json_string =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 6)
         (oneof
            [
              oneofl
                [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x01"; "\x1f"; "/"; "é"; "ε"; "€" ];
              map (String.make 1) printable;
            ])))

let gen_json =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        pure Obs_json.Null;
        map (fun b -> Obs_json.Bool b) bool;
        map (fun i -> Obs_json.Int i) int;
        map (fun s -> Obs_json.Str s) gen_json_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 1,
                 map (fun l -> Obs_json.Arr l)
                   (list_size (int_range 0 4) (self (n / 4))) );
               ( 1,
                 map (fun l -> Obs_json.Obj l)
                   (list_size (int_range 0 4) (pair gen_json_string (self (n / 4)))) );
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"Obs_json.parse inverts to_text, both layouts" ~count:300
    ~print:(Obs_json.to_text ~compact:true) gen_json (fun v ->
      Obs_json.parse (Obs_json.to_text v) = v
      && Obs_json.parse (Obs_json.to_text ~compact:true v) = v)

(* Floats print exactly: every finite float and both infinities come
   back bit for bit (so -0.0 stays -0.0, and an integral float stays a
   Num, never an Int); NaN, which JSON cannot spell, comes back as
   null. Random bit patterns cover subnormals and NaN payloads; random
   ints below 2^57 cover the integral floats around 1e15..1e17, whose
   [%.17g] text has no fraction. *)
let prop_num_exact =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          oneofl
            [ 0.0; -0.0; 1e15; -1e15; 1e17; 0.1; Float.nan; Float.infinity;
              Float.neg_infinity; Float.max_float; Float.min_float ];
          map2
            (fun m e -> m *. Float.pow 10.0 (float_of_int e))
            (float_range (-10.0) 10.0) (int_range (-300) 300);
          map Int64.float_of_bits int64;
          map float_of_int (int_range (-(1 lsl 57)) (1 lsl 57));
        ])
  in
  QCheck2.Test.make ~name:"Obs_json Num round-trips exactly" ~count:1000
    ~print:(Printf.sprintf "%h") gen (fun f ->
      List.for_all
        (fun compact ->
          match Obs_json.parse (Obs_json.to_text ~compact (Obs_json.Num f)) with
          | Obs_json.Null -> Float.is_nan f
          | Obs_json.Num g -> Int64.bits_of_float g = Int64.bits_of_float f
          | _ -> false)
        [ false; true ])

(* One mutant of a valid snapshot per kind of failure, each pinned to
   its exact message: the metric's index, its name when it has one,
   and the key being read. *)
let test_of_json_errors () =
  let good =
    {|{"lightnet_metrics":1,
"metrics":[
{"name":"a_total","kind":"counter","value":3},
{"name":"b_us","kind":"histogram","count":2,"sum":3.0,"min":1.0,"max":2.0,"buckets":[[1.0,1],[2.0,2]]}
]}
|}
  in
  check_int "the unmutated snapshot parses" 2 (List.length (Metrics.of_json good));
  let replace sub by =
    let i = ref 0 in
    while String.sub good !i (String.length sub) <> sub do Stdlib.incr i done;
    String.sub good 0 !i ^ by
    ^ String.sub good (!i + String.length sub)
        (String.length good - !i - String.length sub)
  in
  List.iter
    (fun (what, text, msg) ->
      match Metrics.of_json text with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Failure m -> Alcotest.(check string) what msg m)
    [
      ( "bad counter value", replace {|"value":3|} {|"value":"3"|},
        {|Metrics.of_json: metrics[0] (a_total), key "value": expected number|} );
      ( "unknown kind", replace {|"kind":"counter"|} {|"kind":"meter"|},
        {|Metrics.of_json: metrics[0] (a_total), key "kind": unknown kind "meter"|} );
      ( "missing name", replace {|"name":"b_us",|} "",
        {|Metrics.of_json: metrics[1], key "name": expected string|} );
      ( "bad bucket pair", replace "[2.0,2]" "[2.0]",
        {|Metrics.of_json: metrics[1] (b_us), key "buckets": bucket 1 is not an [upper bound, count] pair|} );
      ( "non-cumulative buckets", replace "[2.0,2]" "[2.0,1]",
        {|Metrics.of_json: metrics[1] (b_us), key "buckets": buckets are not cumulative|} );
      ( "buckets short of count", replace {|"count":2|} {|"count":3|},
        {|Metrics.of_json: metrics[1] (b_us), key "buckets": buckets reach 2, count is 3|} );
      ( "trailing garbage", good ^ "x",
        "Metrics.of_json: trailing garbage at offset 188" );
    ]

let test_unstable_excluded () =
  let g = Metrics.gauge ~stable:false "test_obs_wall_seconds" in
  Metrics.reset ();
  Metrics.set_on true;
  Metrics.set g 123.0;
  Metrics.set_on false;
  let snap = Metrics.snapshot () in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "unstable metric kept in the snapshot" true
    (match Metrics.find snap "test_obs_wall_seconds" with
    | Some m -> (not m.Metrics.stable) && m.Metrics.value = Metrics.Gauge 123.0
    | None -> false);
  check "unstable metric absent from deterministic JSON" false
    (contains (Metrics.to_json snap) "test_obs_wall_seconds");
  Metrics.reset ()

(* [reset] clears each histogram in place: the handle reads empty
   afterwards and its next observations count from zero. *)
let test_reset_empties_histogram () =
  let h = Metrics.histogram "test_obs_reset_us" in
  let hist () =
    match Metrics.find (Metrics.snapshot ()) "test_obs_reset_us" with
    | Some { Metrics.value = Metrics.Histogram hs; _ } -> hs
    | _ -> Alcotest.fail "histogram missing"
  in
  Metrics.set_on true;
  List.iter (Metrics.observe h) [ 0.5; 40.0; 3.0e13 ];
  Metrics.reset ();
  let hs = hist () in
  check_int "count 0 after reset" 0 hs.Metrics.h_count;
  check "no buckets after reset" true (hs.Metrics.h_buckets = []);
  check "NaN min and max after reset" true
    (Float.is_nan hs.Metrics.h_min && Float.is_nan hs.Metrics.h_max);
  List.iter (Metrics.observe h) [ 2.0; 8.0 ];
  Metrics.set_on false;
  let hs = hist () in
  check_int "later updates count from zero" 2 hs.Metrics.h_count;
  check "min, max and sum from zero" true
    (hs.Metrics.h_min = 2.0 && hs.Metrics.h_max = 8.0 && hs.Metrics.h_sum = 10.0);
  check "buckets from zero" true
    (List.map snd hs.Metrics.h_buckets = [ 1; 2 ]);
  Metrics.reset ()

let test_disabled_updates_dropped () =
  let c = Metrics.counter "test_obs_off_total" in
  Metrics.reset ();
  Metrics.incr c;
  Metrics.add c 10;
  (match Metrics.find (Metrics.snapshot ()) "test_obs_off_total" with
  | Some { Metrics.value = Metrics.Counter n; _ } ->
    check_int "updates while disabled are dropped" 0 n
  | _ -> Alcotest.fail "counter missing");
  Metrics.reset ()

(* Kill point: a writer that dies after partial output must leave the
   file it replaces byte-identical and no temporary behind; a writer
   that finishes replaces the file whole. *)
exception Killed

let test_atomic_write_kill_point () =
  let path = "atomic_kill_point.json" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let c = Metrics.counter "test_obs_atomic_total" in
  Metrics.reset ();
  Metrics.set_on true;
  Metrics.add c 3;
  Metrics.set_on false;
  let snap = Metrics.snapshot () in
  Metrics.write_file snap path;
  let old = read () in
  Alcotest.(check string) "complete write" (Metrics.to_json snap) old;
  (match
     Atomic_file.write path (fun oc ->
         output_string oc "{\"lightnet_metrics\":1,\n\"metrics\":[";
         flush oc;
         raise Killed)
   with
  | () -> Alcotest.fail "the writer's exception was swallowed"
  | exception Killed -> ());
  Alcotest.(check string) "old file byte-identical" old (read ());
  check "no temporary left" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  Metrics.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          qcheck prop_quantiles_within_error;
        ] );
      ( "json",
        [
          qcheck prop_json_roundtrip;
          qcheck prop_num_exact;
        ] );
      ( "registry",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "of_json errors name metric and key" `Quick
            test_of_json_errors;
          Alcotest.test_case "unstable export split" `Quick
            test_unstable_excluded;
          Alcotest.test_case "reset empties a histogram" `Quick
            test_reset_empties_histogram;
          Alcotest.test_case "disabled updates dropped" `Quick
            test_disabled_updates_dropped;
          Alcotest.test_case "atomic write kill point" `Quick
            test_atomic_write_kill_point;
        ] );
    ]
