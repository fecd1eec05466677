module Graph = Ln_graph.Graph

(* On-disk layout (all integers little-endian):

     offset  size  field
     0       8     magic "LNROUTE1"
     8       4     format version (u32)
     12      8     payload length (u64)
     20      8     FNV-1a 64 checksum of the payload
     28      -     payload

   Payload sections, in order: graph (n, m, edges as u32/u32/f64
   bits), graph digest (u64, FNV-1a of the graph section bytes),
   SLT root (u32), promised spanner stretch (f64 bits), three edge-id
   lists (spanner, SLT, MST; u32 count + u32 ids), then two
   string-pair tables (construction parameters, ledger notes). The
   encoder is deterministic — lists are stored sorted, there are no
   timestamps — so save -> load -> save is byte-identical, which the
   test-suite pins. *)

let magic = "LNROUTE1"
let version = 1

type t = {
  graph : Graph.t;
  digest : int64; (* FNV-1a 64 of the canonical graph encoding *)
  slt_root : int;
  spanner_stretch : float; (* promised stretch bound t of the spanner *)
  spanner_edges : int list;
  slt_edges : int list;
  mst_edges : int list;
  params : (string * string) list;
  notes : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* FNV-1a 64. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The running hash [h] continued over [b.[off .. off+len-1]]. *)
let fnv1a_from h b off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        fnv_prime
  done;
  !h

let fnv1a_bytes b off len = fnv1a_from fnv_offset b off len

(* ------------------------------------------------------------------ *)
(* Encoding. *)

let add_u32 b i =
  if i < 0 || i > 0x3fffffff then invalid_arg "Artifact: u32 field out of range";
  Buffer.add_int32_le b (Int32.of_int i)

let add_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_string b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_edge_list b ids =
  add_u32 b (List.length ids);
  List.iter (add_u32 b) ids

let add_pairs b kvs =
  add_u32 b (List.length kvs);
  List.iter
    (fun (k, v) ->
      add_string b k;
      add_string b v)
    kvs

let encode_graph b g =
  add_u32 b (Graph.n g);
  add_u32 b (Graph.m g);
  Graph.iter_edges g (fun _ e ->
      add_u32 b e.Graph.u;
      add_u32 b e.Graph.v;
      add_f64 b e.Graph.w)

let graph_digest g =
  let b = Buffer.create (16 + (16 * Graph.m g)) in
  encode_graph b g;
  let bytes = Buffer.to_bytes b in
  fnv1a_bytes bytes 0 (Bytes.length bytes)

let digest_hex t = Printf.sprintf "%016Lx" t.digest

(* ------------------------------------------------------------------ *)
(* Construction. *)

let check_edges g name ids =
  let m = Graph.m g in
  List.iter
    (fun id ->
      if id < 0 || id >= m then
        invalid_arg (Printf.sprintf "Artifact.make: %s edge id %d out of range" name id))
    ids;
  List.sort_uniq Int.compare ids

let make ~graph ~slt_root ~spanner_stretch ~spanner_edges ~slt_edges ~mst_edges
    ?(params = []) ?(notes = []) () =
  if slt_root < 0 || slt_root >= Graph.n graph then
    invalid_arg "Artifact.make: slt_root out of range";
  {
    graph;
    digest = graph_digest graph;
    slt_root;
    spanner_stretch;
    spanner_edges = check_edges graph "spanner" spanner_edges;
    slt_edges = check_edges graph "slt" slt_edges;
    mst_edges = check_edges graph "mst" mst_edges;
    params;
    notes;
  }

(* ------------------------------------------------------------------ *)
(* Save / load. *)

let encode_payload t =
  let b = Buffer.create 4096 in
  encode_graph b t.graph;
  Buffer.add_int64_le b t.digest;
  add_u32 b t.slt_root;
  add_f64 b t.spanner_stretch;
  add_edge_list b t.spanner_edges;
  add_edge_list b t.slt_edges;
  add_edge_list b t.mst_edges;
  add_pairs b t.params;
  add_pairs b t.notes;
  Buffer.to_bytes b

let save path t =
  let payload = encode_payload t in
  let len = Bytes.length payload in
  let header = Buffer.create 28 in
  Buffer.add_string header magic;
  Buffer.add_int32_le header (Int32.of_int version);
  Buffer.add_int64_le header (Int64.of_int len);
  Buffer.add_int64_le header (fnv1a_bytes payload 0 len);
  Ln_obs.Atomic_file.write path (fun oc ->
      Buffer.output_buffer oc header;
      output_bytes oc payload)

type cursor = { data : bytes; mutable pos : int }

let need c k =
  if c.pos + k > Bytes.length c.data then
    failwith "Artifact.load: truncated payload"

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.data c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then failwith "Artifact.load: negative u32 field";
  v

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  v

let get_f64 c = Int64.float_of_bits (get_i64 c)

let get_string c =
  let len = get_u32 c in
  need c len;
  let s = Bytes.sub_string c.data c.pos len in
  c.pos <- c.pos + len;
  s

(* A stored edge-id list, range-checked as it is read. The ids are
   kept in file order: [make] sorts and dedups, so a canonical file
   holds them sorted already. *)
let get_edge_list c ~m name =
  let k = get_u32 c in
  need c (4 * k);
  List.init k (fun _ ->
      let id = get_u32 c in
      if id >= m then
        failwith
          (Printf.sprintf "Artifact.load: %s edge id %d out of range (m = %d)"
             name id m);
      id)

let get_pairs c =
  let k = get_u32 c in
  List.init k (fun _ ->
      let key = get_string c in
      let v = get_string c in
      (key, v))

(* The graph section straight into the columns [Graph.of_edge_arrays]
   takes, with every check that builder would raise [Invalid_argument]
   for made here as a [Failure] naming the edge. [save] writes the
   edges in id order, u < v and (u, v) strictly ascending, and load
   insists on it: the builder then takes them without sorting, and no
   file loads into edge ids other than the ones its edge-id lists and
   digest were written for. *)
let get_graph c =
  let n = get_u32 c in
  let m = get_u32 c in
  if n > 0x3fffffff then
    failwith (Printf.sprintf "Artifact.load: n = %d too large" n);
  need c (16 * m);
  let d = c.data in
  let us = Array.make (max 1 m) 0 in
  let vs = Array.make (max 1 m) 0 in
  let ws = Array.create_float (max 1 m) in
  for i = 0 to m - 1 do
    let p = c.pos + (16 * i) in
    let u = Int32.to_int (Bytes.get_int32_le d p) in
    let v = Int32.to_int (Bytes.get_int32_le d (p + 4)) in
    let w = Int64.float_of_bits (Bytes.get_int64_le d (p + 8)) in
    if u < 0 || u >= n || v < 0 || v >= n then
      failwith
        (Printf.sprintf "Artifact.load: edge %d endpoints (%d, %d) out of range (n = %d)"
           i u v n);
    if not (w > 0.0) then
      failwith
        (Printf.sprintf "Artifact.load: edge %d weight %g is not positive" i w);
    if u >= v || (i > 0 && (u < us.(i - 1) || (u = us.(i - 1) && v <= vs.(i - 1))))
    then
      failwith
        (Printf.sprintf "Artifact.load: edge %d (%d, %d) out of canonical order" i
           u v);
    us.(i) <- u;
    vs.(i) <- v;
    ws.(i) <- w
  done;
  c.pos <- c.pos + (16 * m);
  Graph.of_edge_arrays ~n ~len:m us vs ws

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
      let header = really_input_string ic 28 in
      if String.sub header 0 8 <> magic then
        failwith "Artifact.load: bad magic (not a lightnet artifact)";
      let got_version =
        Int32.to_int (String.get_int32_le header 8)
      in
      if got_version <> version then
        failwith
          (Printf.sprintf "Artifact.load: format version %d, expected %d"
             got_version version);
      let len = Int64.to_int (String.get_int64_le header 12) in
      (* Checked before allocating: a header must not make us reserve
         more than the file holds. *)
      if len < 0 || len > in_channel_length ic - 28 then
        failwith
          "Artifact.load: truncated artifact file (payload length exceeds \
           the file)";
      let checksum = String.get_int64_le header 20 in
      let payload = Bytes.create len in
      really_input ic payload 0 len;
      (try
         ignore (input_char ic);
         failwith "Artifact.load: trailing bytes after payload"
       with End_of_file -> ());
      (* One FNV-1a pass gives both hashes: the graph section (n, m,
         then 16 bytes per edge) opens the payload, so its digest is
         the running hash at the section's end. A stored m that does
         not fit the payload leaves the split at the end; decoding
         then reports the truncation. *)
      let graph_len =
        let m = if len < 8 then -1 else Int32.to_int (Bytes.get_int32_le payload 4) in
        if m < 0 || m > (len - 8) / 16 then len else 8 + (16 * m)
      in
      let graph_hash = fnv1a_bytes payload 0 graph_len in
      if fnv1a_from graph_hash payload graph_len (len - graph_len) <> checksum
      then failwith "Artifact.load: checksum mismatch (corrupt artifact)";
      let c = { data = payload; pos = 0 } in
      let graph = get_graph c in
      let digest = get_i64 c in
      if graph_hash <> digest then failwith "Artifact.load: graph digest mismatch";
      let n = Graph.n graph and m = Graph.m graph in
      let slt_root = get_u32 c in
      if slt_root >= n then
        failwith
          (Printf.sprintf "Artifact.load: slt_root %d out of range (n = %d)"
             slt_root n);
      let spanner_stretch = get_f64 c in
      let spanner_edges = get_edge_list c ~m "spanner" in
      let slt_edges = get_edge_list c ~m "slt" in
      let mst_edges = get_edge_list c ~m "mst" in
      let params = get_pairs c in
      let notes = get_pairs c in
      if c.pos <> len then failwith "Artifact.load: payload length mismatch";
      {
        graph;
        digest;
        slt_root;
        spanner_stretch;
        spanner_edges;
        slt_edges;
        mst_edges;
        params;
        notes;
      }
      with End_of_file -> failwith "Artifact.load: truncated artifact file")

let pp ppf t =
  Format.fprintf ppf
    "artifact(v%d, graph n=%d m=%d, digest %s, spanner %d edges (t<=%.2f), slt %d edges @@ root %d, mst %d edges, %d params, %d notes)"
    version (Graph.n t.graph) (Graph.m t.graph) (digest_hex t)
    (List.length t.spanner_edges) t.spanner_stretch
    (List.length t.slt_edges) t.slt_root
    (List.length t.mst_edges) (List.length t.params) (List.length t.notes)
