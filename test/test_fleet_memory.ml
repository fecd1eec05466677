(* The fleet's memory bound, in an executable of its own: the gate
   reads [Gc.top_heap_words], the highest the heap has been in the
   whole process, so a test that ran earlier in the same binary could
   raise that peak above what the gated batch needs and hide its
   growth. Here only the warm-up batch runs before it. *)

module Oracle = Ln_route.Oracle
module Workload = Ln_route.Workload
module Store = Ln_store.Store
module Fleet = Ln_store.Fleet
open Store_fixture

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A batch holds at most one oracle per network beyond the store's
   own residents, whatever its length: with 8 networks and room for 4,
   an 8,000-request cache-tier batch reloads thousands of evicted
   instances, and each must become garbage mid-batch. A 1,000-request
   batch first brings the heap to its working size; the long batch may
   then grow the top of the heap by at most [slack] words; it grows it
   by about 0.14M. A pre-pass that pinned every resolved instance
   until the batch ended grew it by 6.45M words here. *)
let test_fleet_memory_bounded () =
  with_tmp_dir @@ fun dir ->
  let _ = populate dir ~count:8 in
  let st = Store.open_dir ~capacity:4 dir in
  let batch seed count = Fleet.workload ~seed st Workload.Uniform ~count in
  let short = batch 1 1_000 and long = batch 2 8_000 in
  let warm = Fleet.run st ~tier:Oracle.Cache short in
  check_int "warm-up answered" 1_000 warm.Fleet.queries;
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  let before = top () in
  let outcome = Fleet.run st ~tier:Oracle.Cache long in
  let grown = top () - before in
  check_int "long batch answered" 8_000 outcome.Fleet.queries;
  check "long batch reloads evicted networks" true
    (outcome.Fleet.store.Store.misses > 1_000);
  let slack = 1_000_000 in
  if grown > slack then
    Alcotest.failf "an 8,000-request batch grew the top heap by %d words (slack %d)"
      grown slack

let () =
  Alcotest.run "fleet_memory"
    [
      ( "fleet",
        [
          Alcotest.test_case "fleet memory bounded by networks" `Quick
            test_fleet_memory_bounded;
        ] );
    ]
