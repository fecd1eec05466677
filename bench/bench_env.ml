(* Host/environment facts stamped into every BENCH_*.json header so
   numbers stay interpretable after the fact: wall-clock figures from
   a single-core box and a 32-core box do not compare, and peak RSS is
   the figure the memory-ceiling methodology in EXPERIMENTS.md is
   stated in. BENCH_faults.json is the exception: it records no
   measurement, only deterministic counts and verdicts, so it carries
   the host facts but not the peak RSS and regenerates byte for byte.
   Kept dependency-free (reads /proc directly) and shared by
   engine_bench, oracle_bench and scale_smoke. *)

let ocaml_version = Sys.ocaml_version

let word_size = Sys.word_size

(* The value of the "KEY:" line of /proc/self/status, or [None] where
   /proc is unavailable (non-Linux), so headers degrade gracefully
   rather than fail. *)
let proc_status key =
  let prefix = key ^ ":" in
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix line ->
            let k = String.length prefix in
            Some (String.trim (String.sub line k (String.length line - k)))
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ -> None

(* CPUs this process may run on: the size of its affinity mask (a
   list such as "0-3,6"), 1 where /proc is unavailable. *)
let cores () =
  let count range =
    match List.map int_of_string_opt (String.split_on_char '-' range) with
    | [ Some _ ] -> 1
    | [ Some a; Some b ] when b >= a -> b - a + 1
    | _ -> 0
  in
  match proc_status "Cpus_allowed_list" with
  | Some list ->
    let ranges = String.split_on_char ',' list in
    max 1 (List.fold_left (fun acc r -> acc + count r) 0 ranges)
  | None -> 1

(* Peak resident set size of this process in kilobytes, from VmHWM;
   0 where /proc is unavailable. *)
let peak_rss_kb () =
  match proc_status "VmHWM" with
  | Some v -> Option.value ~default:0 (Scanf.sscanf_opt v "%d" Fun.id)
  | None -> 0

(* Live words / top-of-heap words right now, after a major slice, for
   peak-memory reporting that is about the data structures rather than
   GC slack. *)
let heap_words () =
  let st = Gc.stat () in
  (st.Gc.live_words, st.Gc.top_heap_words)
