(* Observability-substrate tests: streaming histogram quantiles
   against exact order statistics, merge associativity, domain-sharded
   counters against sequential totals, JSON round-trips (the shared
   codec and the metrics snapshot), the Prometheus validator, the
   stable/unstable export split, and crash-atomic file replacement. *)

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

let prop_merge_associative =
  QCheck2.Test.make ~name:"hist merge is associative (exact on counts)"
    ~count:60
    QCheck2.Gen.(triple gen_values gen_values gen_values)
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      let left = Hist.merge (Hist.merge ha hb) hc in
      let right = Hist.merge ha (Hist.merge hb hc) in
      Hist.count left = Hist.count right
      && Hist.min_value left = Hist.min_value right
      && Hist.max_value left = Hist.max_value right
      (* Bucket counts are integers, so every quantile is bit-equal
         regardless of merge order; only the float sum is merely
         close. *)
      && List.for_all
           (fun q -> Hist.quantile left q = Hist.quantile right q)
           [ 0.5; 0.9; 0.99 ]
      && Float.abs (Hist.sum left -. Hist.sum right)
         <= 1e-9 *. (1.0 +. Float.abs (Hist.sum left)))

let prop_merge_counts_add =
  QCheck2.Test.make ~name:"hist merge adds counts and keeps min/max"
    ~count:60
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (a, b) ->
      let m = Hist.merge (hist_of a) (hist_of b) in
      Hist.count m = List.length a + List.length b
      && Hist.min_value m = List.fold_left Float.min Float.infinity (a @ b)
      && Hist.max_value m = List.fold_left Float.max Float.neg_infinity (a @ b))

(* Domain sharding: hammer one counter and one histogram from several
   domains at once; the snapshot must see every update exactly once.
   (On a 1-core host the domains mostly serialize, but the shard
   creation and summing paths are identical.) *)
let test_domain_sharded_sum () =
  let c = Metrics.counter "test_obs_shard_total" in
  let h = Metrics.histogram "test_obs_shard_hist" in
  Metrics.reset ();
  Metrics.set_on true;
  let per_domain = 10_000 and domains = 4 in
  let work () =
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h (float_of_int i)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join ds;
  Metrics.set_on false;
  let snap = Metrics.snapshot () in
  let total = (domains + 1) * per_domain in
  (match Metrics.find snap "test_obs_shard_total" with
  | Some { Metrics.value = Metrics.Counter n; _ } ->
    check_int "sharded counter = sequential total" total n
  | _ -> Alcotest.fail "counter missing from snapshot");
  (match Metrics.find snap "test_obs_shard_hist" with
  | Some { Metrics.value = Metrics.Histogram hs; _ } ->
    check_int "sharded histogram count" total hs.Metrics.h_count;
    check "sharded histogram max" true (hs.Metrics.h_max = float_of_int per_domain)
  | _ -> Alcotest.fail "histogram missing from snapshot");
  Metrics.reset ()

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
  let js = Metrics.to_json ~all:true snap in
  let back = Metrics.of_json js in
  check "of_json . to_json is the identity on the wire" true
    (Metrics.to_json ~all:true back = js);
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

let test_prometheus_validates () =
  let c = Metrics.counter "test_obs_prom_total" in
  let h = Metrics.histogram "test_obs_prom_hist" in
  Metrics.reset ();
  Metrics.set_on true;
  Metrics.add c 7;
  List.iter (Metrics.observe h) [ 1.0; 2.0; 300.0 ];
  Metrics.set_on false;
  let text = Metrics.to_prometheus (Metrics.snapshot ()) in
  (match Metrics.validate_prometheus text with
  | Ok n -> check "validator counted samples" true (n > 0)
  | Error e -> Alcotest.failf "to_prometheus failed its own validator: %s" e);
  (match Metrics.validate_prometheus (text ^ "bad line{\n") with
  | Ok _ -> Alcotest.fail "validator accepted a malformed line"
  | Error _ -> ());
  (match Metrics.validate_prometheus "untyped_total 3\n" with
  | Ok _ -> Alcotest.fail "validator accepted a sample without # TYPE"
  | Error _ -> ());
  Metrics.reset ()

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
  check "unstable metric absent from deterministic JSON" false
    (contains (Metrics.to_json snap) "test_obs_wall_seconds");
  check "unstable metric present with ~all" true
    (contains (Metrics.to_json ~all:true snap) "test_obs_wall_seconds");
  check "unstable metric present in Prometheus text" true
    (contains (Metrics.to_prometheus snap) "test_obs_wall_seconds");
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
  let path = "atomic_kill_point.prom" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let c = Metrics.counter "test_obs_atomic_total" in
  Metrics.reset ();
  Metrics.set_on true;
  Metrics.add c 3;
  Metrics.set_on false;
  let snap = Metrics.snapshot () in
  Metrics.write_file snap path;
  let old = read () in
  Alcotest.(check string) "complete write" (Metrics.to_prometheus snap) old;
  (match
     Atomic_file.write path (fun oc ->
         output_string oc "test_obs_atomic_total 4\n# partial";
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
          qcheck prop_merge_associative;
          qcheck prop_merge_counts_add;
        ] );
      ( "json",
        [
          qcheck prop_json_roundtrip;
          qcheck prop_num_exact;
        ] );
      ( "registry",
        [
          Alcotest.test_case "domain-sharded sum" `Quick test_domain_sharded_sum;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "prometheus validator" `Quick
            test_prometheus_validates;
          Alcotest.test_case "unstable export split" `Quick
            test_unstable_excluded;
          Alcotest.test_case "disabled updates dropped" `Quick
            test_disabled_updates_dropped;
          Alcotest.test_case "atomic write kill point" `Quick
            test_atomic_write_kill_point;
        ] );
    ]
