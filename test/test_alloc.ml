(* Allocation gate: minor-heap words allocated per delivered message by
   the message-heavy programs, each pinned at or under a ceiling.

   A run's minor allocation is deterministic for a given build and
   input, so these are exact cost counters, not timings: they hold on
   any host. Each ceiling is the measured figure rounded up. The
   families ported to the cursor step (Bellman–Ford, hub SSSP, the
   tree broadcast) allocate a handful of words per message; list-style
   programs pay a record and list cells per message on both sides of
   the adapter, so [Exchange.floats] is pinned too — the adapter must
   not add allocation unnoticed. *)

open Lightnet

let geo_500 =
  lazy
    (Gen.ensure_connected
       (Random.State.make [| 42; 102 |])
       (fst
          (Gen.random_geometric
             (Random.State.make [| 42; 2 |])
             ~n:500
             ~radius:(2.2 /. Float.sqrt 500.0)
             ())))

(* Words per message of [f ()]: every engine run inside it counts. The
   first call warms the engine's per-graph scratch, so the measured
   call allocates only what a steady-state run does. *)
let words_per_message f =
  ignore (Sys.opaque_identity (f ()));
  let before = Engine.snapshot_totals () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let w1 = Gc.minor_words () in
  let p = Engine.totals_since before in
  (w1 -. w0) /. float_of_int (max 1 p.Engine.messages)

let gate name ~ceiling f () =
  let w = words_per_message f in
  Printf.printf "%s: %.4f words per message (ceiling %.1f)\n" name w ceiling;
  if w > ceiling then
    Alcotest.failf "%s: %.2f words per message, ceiling %.1f" name w ceiling

let items g = Array.init (Graph.n g) (fun v -> if v mod 5 = 0 then [ v; v + 1 ] else [])

(* Ceilings on geo n = 500 (seed 42), measured figure rounded up. Run
   through the list API, before the cursor step, the same calls
   allocated 29.7, 33.0, 38.8, 64.9, 73.1 and 64.2 words for the first
   six and 30.19 for [Exchange.floats]. As cursor steps on per-node
   hashtables and the boxing [ctx.weight], the first three allocated
   4.61, 5.97 and 7.05; the flat multi-source tables and the weight
   column took them to 2.61, 1.44 and 3.37. Gather reads higher than
   the other two tree broadcasts because it moves fewer messages over
   the same per-node setup. *)
let () =
  let g = Lazy.force geo_500 in
  let tree = fst (Bfs.tree g ~root:0) in
  let t name ceiling f = Alcotest.test_case name `Quick (gate name ~ceiling f) in
  Alcotest.run "ln_alloc"
    [
      ( "words-per-message",
        [
          t "Bellman_ford.sssp" 2.7 (fun () -> Bellman_ford.sssp g ~src:0);
          t "Bellman_ford.multi_source" 1.5 (fun () ->
              Bellman_ford.multi_source g ~srcs:[ 0; 100; 200; 300; 400 ]);
          t "Hub_sssp.run" 3.4 (fun () ->
              Hub_sssp.run ~rng:(Random.State.make [| 7 |]) g ~bfs:tree ~src:0);
          t "Broadcast.all_to_all" 9.2 (fun () ->
              Broadcast.all_to_all g ~tree ~items:(items g));
          t "Broadcast.gather" 15.8 (fun () -> Broadcast.gather g ~tree ~items:(items g));
          t "Broadcast.downcast" 9.7 (fun () ->
              Broadcast.downcast g ~tree ~items:(List.init 40 Fun.id));
          t "Exchange.floats (list adapter)" 30.2 (fun () ->
              Exchange.floats g (Array.init (Graph.n g) float_of_int));
        ] );
    ]
