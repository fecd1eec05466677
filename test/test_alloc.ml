(* Allocation gate: minor-heap words allocated per delivered message by
   the message-heavy programs, each pinned at or under a ceiling.

   A run's minor allocation is deterministic for a given build and
   input, so these are exact cost counters, not timings: they hold on
   any host. Each ceiling is the measured figure rounded up. Every
   program is a cursor step, so a message costs its payload and what
   the algorithm keeps of it; there is one ceiling per differential
   family whose programs send the messages. *)

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

(* Ceilings on geo n = 500 (seed 42), each the measured figure rounded
   up. The first six were already cursor steps (the list API allocated
   29.7, 33.0, 38.8, 64.9, 73.1 and 64.2 words per message). The rest
   ran through the list adapter until it was deleted, at (in order)
   29.58, 26.05, 30.19, 19.50, 34.83, 19.84, 65.12, 53.69, 5.58 and
   6.05 words per message. The tree broadcasts send item ids and
   allocate per call, not per message: per-vertex int arrays, the item
   table and one result list that every vertex shares. Their queue
   program read 9.13, 15.80 and 9.70, and the pipelines built on them
   (Hub_sssp, Keyed, Dist_mst, Euler_dist, the light spanner and the
   SLT) read 3.28, 14.86, 21.46, 16.83, 41.01 and 5.12. Gather reads
   higher than the other two because it has no downcast: about 4,100
   words of set-up over 1,943 messages, where all_to_all spreads its
   set-up over 102,242. The pipelines include their central work.
   Reading a tree's parent column in place, instead of rebuilding it
   per call, took gather from 3.41 to 2.12, downcast from 0.21 to 0.09,
   Keyed from 6.47 to 6.01 and Dist_mst, which runs Keyed, from 17.56
   to 17.26; with the MST also rooted once and its fragment forest
   derived once, Euler_dist went from 6.90 to 5.36 and the light
   spanner from 35.17 to 34.27. *)
let () =
  let g = Lazy.force geo_500 in
  let n = Graph.n g in
  let tree = fst (Bfs.tree g ~root:0) in
  let mst = Dist_mst.run g in
  let rng () = Random.State.make [| 7 |] in
  let t name ceiling f = Alcotest.test_case name `Quick (gate name ~ceiling f) in
  Alcotest.run "ln_alloc"
    [
      ( "words-per-message",
        [
          t "Bellman_ford.sssp" 2.7 (fun () -> Bellman_ford.sssp g ~src:0);
          t "Bellman_ford.multi_source" 1.5 (fun () ->
              Bellman_ford.multi_source g ~srcs:[ 0; 100; 200; 300; 400 ]);
          t "Hub_sssp.run" 1.9 (fun () ->
              Hub_sssp.run ~rng:(Random.State.make [| 7 |]) g ~bfs:tree ~src:0);
          t "Broadcast.all_to_all" 0.1 (fun () ->
              Broadcast.all_to_all g ~tree ~items:(items g));
          t "Broadcast.gather" 2.2 (fun () -> Broadcast.gather g ~tree ~items:(items g));
          t "Broadcast.downcast" 0.1 (fun () ->
              Broadcast.downcast g ~tree ~items:(List.init 40 Fun.id));
          t "Bfs.tree" 8.3 (fun () -> Bfs.tree g ~root:0);
          t "Exchange.ints" 6.1 (fun () -> Exchange.ints g (Array.init n Fun.id));
          t "Exchange.floats" 10.2 (fun () ->
              Exchange.floats g (Array.init n float_of_int));
          t "Keyed.global_best" 6.1 (fun () ->
              Keyed.global_best g ~tree ~nkeys:16
                ~local:(fun v -> [ (v mod 16, v) ])
                ~better:( < ));
          t "Dist_mst.run" 17.3 (fun () -> Dist_mst.run g);
          t "Euler_dist.run" 5.4 (fun () -> Euler_dist.run mst ~rt:0);
          t "Baswana_sen.build ~k:2" 43.9 (fun () -> Baswana_sen.build ~rng:(rng ()) ~k:2 g);
          t "Light_spanner.build ~k:2 ~epsilon:0.25" 34.3 (fun () ->
              Light_spanner.build ~rng:(rng ()) g ~k:2 ~epsilon:0.25);
          t "Slt.build ~epsilon:0.5" 2.8 (fun () ->
              Slt.build ~rng:(rng ()) g ~rt:0 ~epsilon:0.5);
          t "Doubling_spanner.build ~epsilon:0.5" 5.0 (fun () ->
              Doubling_spanner.build ~rng:(rng ()) g ~epsilon:0.5);
        ] );
    ]
