let write_graph oc g =
  Printf.fprintf oc "c lightnet graph\np edge %d %d\n" (Graph.n g) (Graph.m g);
  Graph.iter_edges g (fun _ e ->
      Printf.fprintf oc "e %d %d %.17g\n" (e.Graph.u + 1) (e.Graph.v + 1) e.Graph.w)

(* Readers reject bad input line by line: every rejection is a
   [Failure] naming the 1-based line, after [who] (the reader, or the
   file for [load_*]), so a truncated or hand-edited file fails loudly
   instead of loading as a different graph. *)
let fail who line fmt =
  Printf.ksprintf (fun s -> failwith (Printf.sprintf "%s: line %d: %s" who line s)) fmt

(* Calls [f lineno line fields] on every non-blank line, [fields] being
   its whitespace-separated words; returns the number of lines read. *)
let iter_lines ic f =
  let lineno = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       incr lineno;
       if line <> "" then
         let words = String.map (fun c -> if c = '\t' then ' ' else c) line in
         f !lineno line (List.filter (( <> ) "") (String.split_on_char ' ' words))
     done
   with End_of_file -> ());
  !lineno

let read_graph_as who ic =
  let fail line fmt = fail who line fmt in
  (* (n, declared m, line of the problem line) *)
  let header = ref None and edges = ref [] and count = ref 0 in
  let lines =
    iter_lines ic @@ fun k line fields ->
    match (fields, !header) with
    | _ when line.[0] = 'c' -> ()
    | [ "p"; "edge"; n; m ], None -> (
      match (int_of_string_opt n, int_of_string_opt m) with
      | Some n, Some m when n >= 0 && m >= 0 -> header := Some (n, m, k)
      | _ -> fail k "malformed problem line %S" line)
    | "p" :: _, Some _ -> fail k "second problem line"
    | "e" :: _, None -> fail k "edge line before the problem line"
    | [ "e"; u; v; w ], Some (n, _, _) -> (
      let node x =
        match int_of_string_opt x with Some x when x >= 1 && x <= n -> Some x | _ -> None
      in
      match (node u, node v, float_of_string_opt w) with
      | Some u, Some v, Some w when Float.is_finite w && w > 0.0 ->
        edges := { Graph.u = u - 1; v = v - 1; w } :: !edges;
        incr count
      | _ ->
        fail k "bad edge line %S (want e <u> <v> <w>, 1 <= u, v <= %d, finite w > 0)"
          line n)
    | _ -> fail k "malformed line %S" line
  in
  match !header with
  | None -> fail (lines + 1) "end of input before the problem line"
  | Some (n, m, k) ->
    if !count <> m then
      fail k "problem line declares %d edges, the file has %d" m !count;
    (try Graph.create n !edges with Invalid_argument msg -> fail k "%s" msg)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let save_graph path g =
  Ln_obs.Atomic_file.write path (fun oc -> write_graph oc g)
let load_graph path = with_in path (read_graph_as path)

let write_edge_set oc ids =
  Printf.fprintf oc "# lightnet edge set (%d edges)\n" (List.length ids);
  List.iter (fun id -> Printf.fprintf oc "%d\n" id) ids

let read_edge_set_as who ic =
  let fail line fmt = fail who line fmt in
  let declared = ref None and ids = ref [] and count = ref 0 in
  let (_ : int) =
    iter_lines ic @@ fun k line _ ->
    match int_of_string_opt line with
    | Some id when id >= 0 ->
      ids := id :: !ids;
      incr count
    | _ when line.[0] <> '#' -> fail k "expected a non-negative edge id, got %S" line
    | _ when k = 1 ->
      (* [write_edge_set]'s header line carries the count. *)
      declared := Scanf.sscanf_opt line "# lightnet edge set (%d edges)%!" Fun.id
    | _ -> ()
  in
  (match !declared with
  | Some d when d <> !count -> fail 1 "header declares %d edges, the file has %d" d !count
  | _ -> ());
  List.rev !ids

let save_edge_set path ids =
  Ln_obs.Atomic_file.write path (fun oc -> write_edge_set oc ids)
let load_edge_set path = with_in path (read_edge_set_as path)
