(* Fixtures shared by the store, fleet and route tests: cheap
   artifacts with distinct digests, temporary store directories, a
   store populated with them, and an exact allocation probe. *)

module Graph = Ln_graph.Graph
module Gen = Ln_graph.Gen
module Mst_seq = Ln_graph.Mst_seq
module Artifact = Ln_route.Artifact
module Store = Ln_store.Store

(* Same cheap-artifact recipe as test_route: MST plus every third edge
   stands in for the spanner. Different (n, seed) pairs give distinct
   graph digests. *)
let make_artifact ?(n = 40) ~seed () =
  let rng = Random.State.make [| seed; 0xa2 |] in
  let g = Gen.erdos_renyi rng ~n ~p:0.15 () in
  let mst = Mst_seq.kruskal g in
  let extra =
    List.filteri (fun i _ -> i mod 3 = 0) (List.init (Graph.m g) Fun.id)
  in
  Artifact.make ~graph:g ~slt_root:3 ~spanner_stretch:3.0
    ~spanner_edges:(mst @ extra) ~slt_edges:mst ~mst_edges:mst
    ~notes:[ ("seed", string_of_int seed) ]
    ()

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_tmp_dir f =
  let dir = Filename.temp_file "lightnet_store" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Populate [dir] with [count] distinct artifacts; returns their
   digests in the order added. *)
let populate ?n dir ~count =
  let st = Store.open_dir dir in
  List.init count (fun i ->
      let art = make_artifact ?n ~seed:(100 + i) () in
      let tmp = Filename.temp_file "lightnet_store_src" ".artifact" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Artifact.save tmp art;
          match Store.add st tmp with
          | Ok (digest, `Added) -> digest
          | Ok (_, `Duplicate) -> Alcotest.fail "fresh artifact was a duplicate"
          | Error why -> Alcotest.fail why))

(* Words allocated by one call, minor + major - promoted. [Gc.minor]
   empties the minor heap before each reading: OCaml 5.1's
   [Gc.counters] counts only an eighth of the words in a partly filled
   minor heap. *)
let words_allocated f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  f ();
  int_of_float (words () -. before)
