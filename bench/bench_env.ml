(* Host/environment facts stamped into every BENCH_*.json header so
   numbers stay interpretable after the fact: wall-clock figures from
   a single-core box and a 32-core box do not compare, and peak RSS is
   the figure the memory-ceiling methodology in EXPERIMENTS.md is
   stated in. Kept dependency-free (reads /proc
   directly) and shared by engine_bench, oracle_bench and
   scale_smoke. *)

let cores () = Domain.recommended_domain_count ()

let ocaml_version = Sys.ocaml_version

let word_size = Sys.word_size

(* Peak resident set size of this process in kilobytes, from
   /proc/self/status VmHWM. Returns 0 where /proc is unavailable
   (non-Linux), so headers degrade gracefully rather than fail. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          let digits = String.trim (String.sub line 6 (String.length line - 6)) in
          let kb =
            match String.index_opt digits ' ' with
            | Some i -> String.sub digits 0 i
            | None -> digits
          in
          close_in ic;
          int_of_string kb
        end
        else scan ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    scan ()
  with _ -> 0

(* Live words / top-of-heap words right now, after a major slice, for
   peak-memory reporting that is about the data structures rather than
   GC slack. *)
let heap_words () =
  let st = Gc.stat () in
  (st.Gc.live_words, st.Gc.top_heap_words)
