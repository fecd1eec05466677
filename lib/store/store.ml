module Artifact = Ln_route.Artifact
module Oracle = Ln_route.Oracle
module Metrics = Ln_obs.Metrics

type status = Ready | Quarantined of string

type entry = {
  digest : string;
  path : string;
  bytes : int;
  status : status;
  loaded : bool;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  loaded : int;
  ready : int;
  quarantined : int;
}

(* Process-wide store counters. Per-network serving traffic is
   already labelled by digest in the [lightnet_serve_*] series; the
   store series watch the movement of whole networks in and out of
   memory, which is naturally process-level. *)
let m_hits =
  Metrics.counter ~help:"Store oracle-LRU hits."
    "lightnet_store_oracle_hits_total"

let m_misses =
  Metrics.counter ~help:"Store oracle-LRU misses (artifact loads)."
    "lightnet_store_oracle_misses_total"

let m_evictions =
  Metrics.counter ~help:"Store oracle-LRU evictions."
    "lightnet_store_oracle_evictions_total"

let m_quarantined =
  Metrics.counter ~help:"Artifacts quarantined (corrupt or mismatched)."
    "lightnet_store_quarantined_total"

let m_loaded =
  Metrics.gauge ~help:"Oracles currently resident in store LRUs."
    "lightnet_store_loaded_oracles"

type slot = {
  path : string;
  mutable status : status;
}

type t = {
  dir : string;
  capacity : int;
  cache_capacity : int;
  entries : (string, slot) Hashtbl.t;
  resident : (string, Oracle.t * int ref) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let artifact_suffix = ".artifact"
let quarantine_suffix = ".artifact.quarantined"

let is_digest s =
  String.length s = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let quarantine_path slot = slot.path ^ ".quarantined"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ?(capacity = 8) ?(cache_capacity = 64) dir =
  if capacity < 1 then invalid_arg "Store.open_dir: capacity < 1";
  if cache_capacity < 1 then invalid_arg "Store.open_dir: cache capacity < 1";
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store.open_dir: %s is not a directory" dir);
  mkdir_p dir;
  let t =
    {
      dir;
      capacity;
      cache_capacity;
      entries = Hashtbl.create 32;
      resident = Hashtbl.create (2 * capacity);
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  Array.iter
    (fun file ->
      let stem suffix =
        match Filename.chop_suffix_opt ~suffix file with
        | Some s when is_digest s -> Some s
        | _ -> None
      in
      match (stem artifact_suffix, stem quarantine_suffix) with
      | Some digest, _ ->
        Hashtbl.replace t.entries digest
          { path = Filename.concat dir file; status = Ready }
      | None, Some digest ->
        (* Do not clobber a live entry: a digest can have both a fresh
           canonical file and the quarantined husk of an earlier copy. *)
        if not (Hashtbl.mem t.entries digest) then
          Hashtbl.replace t.entries digest
            {
              path = Filename.concat dir (digest ^ artifact_suffix);
              status = Quarantined "quarantined in a previous run";
            }
      | None, None -> ())
    (Sys.readdir dir);
  t

let dir t = t.dir
let capacity t = t.capacity

let sorted_entries t =
  Hashtbl.fold (fun digest slot acc -> (digest, slot) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let digests t =
  sorted_entries t
  |> List.filter_map (fun (digest, slot) ->
         match slot.status with Ready -> Some digest | Quarantined _ -> None)

let file_bytes path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let ls t =
  sorted_entries t
  |> List.map (fun (digest, slot) ->
         {
           digest;
           path = slot.path;
           bytes =
             file_bytes
               (match slot.status with
               | Ready -> slot.path
               | Quarantined _ -> quarantine_path slot);
           status = slot.status;
           loaded = Hashtbl.mem t.resident digest;
         })

let set_loaded_gauge t =
  if Metrics.on () then
    Metrics.set m_loaded (float_of_int (Hashtbl.length t.resident))

(* An artifact the oracle cannot serve (an SLT that is not a spanning
   tree of its graph) is as unusable as a corrupt one. *)
let serve_checked t artifact =
  match Oracle.create ~cache_capacity:t.cache_capacity artifact with
  | oracle -> Ok oracle
  | exception Invalid_argument why -> Error why

(* End-to-end read of one entry: the format/checksum rejections come
   from [Artifact.load]; on top of those the store insists the content
   digest matches the filename, so a valid artifact copied under the
   wrong name cannot impersonate another network, and that the oracle
   can serve it. *)
let load_checked t digest slot =
  match Artifact.load slot.path with
  | artifact ->
    let actual = Artifact.digest_hex artifact in
    if actual = digest then serve_checked t artifact
    else
      Error
        (Printf.sprintf "digest mismatch: file is named %s but holds %s" digest
           actual)
  | exception Failure why -> Error why

let quarantine t digest slot why =
  slot.status <- Quarantined why;
  (try Sys.rename slot.path (quarantine_path slot) with Sys_error _ -> ());
  Hashtbl.remove t.resident digest;
  set_loaded_gauge t;
  if Metrics.on () then Metrics.incr m_quarantined

let evict_stalest t =
  let victim = ref "" and stalest = ref max_int in
  Hashtbl.iter
    (fun digest (_, stamp) ->
      if !stamp < !stalest then begin
        stalest := !stamp;
        victim := digest
      end)
    t.resident;
  if !victim <> "" then begin
    Hashtbl.remove t.resident !victim;
    t.evictions <- t.evictions + 1;
    if Metrics.on () then Metrics.incr m_evictions
  end

let oracle t digest =
  match Hashtbl.find_opt t.entries digest with
  | None -> Error (Printf.sprintf "unknown digest %s" digest)
  | Some slot -> (
    match slot.status with
    | Quarantined why ->
      Error (Printf.sprintf "artifact %s quarantined: %s" digest why)
    | Ready -> (
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.resident digest with
      | Some (oracle, stamp) ->
        t.hits <- t.hits + 1;
        if Metrics.on () then Metrics.incr m_hits;
        stamp := t.clock;
        Ok oracle
      | None -> (
        t.misses <- t.misses + 1;
        if Metrics.on () then Metrics.incr m_misses;
        match load_checked t digest slot with
        | Error why ->
          quarantine t digest slot why;
          Error (Printf.sprintf "artifact %s quarantined: %s" digest why)
        | Ok oracle ->
          if Hashtbl.length t.resident >= t.capacity then evict_stalest t;
          Hashtbl.replace t.resident digest (oracle, ref t.clock);
          set_loaded_gauge t;
          Ok oracle)))

let add t path =
  match Artifact.load path with
  | exception Failure why -> Error why
  | artifact -> (
    let digest = Artifact.digest_hex artifact in
    match (serve_checked t artifact, Hashtbl.find_opt t.entries digest) with
    | Error why, _ -> Error why
    | Ok _, Some { status = Ready; _ } -> Ok (digest, `Duplicate)
    | Ok _, ((Some { status = Quarantined _; _ } | None) as existing) ->
      let dest = Filename.concat t.dir (digest ^ artifact_suffix) in
      Artifact.save dest artifact;
      (match existing with
      | Some slot -> slot.status <- Ready
      | None -> Hashtbl.replace t.entries digest { path = dest; status = Ready });
      Ok (digest, `Added))

let verify t =
  sorted_entries t
  |> List.map (fun (digest, slot) ->
         match slot.status with
         | Quarantined why -> (digest, Error (Printf.sprintf "quarantined: %s" why))
         | Ready -> (
           match load_checked t digest slot with
           | Ok _ -> (digest, Ok ())
           | Error why ->
             quarantine t digest slot why;
             (digest, Error why)))

let gc t =
  let collected = ref 0 in
  sorted_entries t
  |> List.iter (fun (digest, slot) ->
         match slot.status with
         | Ready -> ()
         | Quarantined _ ->
           (try Sys.remove (quarantine_path slot) with Sys_error _ -> ());
           Hashtbl.remove t.entries digest;
           incr collected);
  !collected

let stats t =
  let ready = ref 0 and quarantined = ref 0 in
  Hashtbl.iter
    (fun _ slot ->
      match slot.status with
      | Ready -> incr ready
      | Quarantined _ -> incr quarantined)
    t.entries;
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    loaded = Hashtbl.length t.resident;
    ready = !ready;
    quarantined = !quarantined;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
