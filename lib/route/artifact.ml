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

let fnv1a_bytes b off len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        fnv_prime
  done;
  !h

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
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
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

let get_edge_list c =
  let k = get_u32 c in
  List.init k (fun _ -> get_u32 c)

let get_pairs c =
  let k = get_u32 c in
  List.init k (fun _ ->
      let key = get_string c in
      let v = get_string c in
      (key, v))

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
      if fnv1a_bytes payload 0 len <> checksum then
        failwith "Artifact.load: checksum mismatch (corrupt artifact)";
      let c = { data = payload; pos = 0 } in
      let graph_start = c.pos in
      let n = get_u32 c in
      let m = get_u32 c in
      let edges =
        List.init m (fun _ ->
            let u = get_u32 c in
            let v = get_u32 c in
            let w = get_f64 c in
            { Graph.u; v; w })
      in
      let graph_end = c.pos in
      let graph = Graph.create n edges in
      if Graph.m graph <> m then
        failwith "Artifact.load: graph edge list not canonical";
      let digest = get_i64 c in
      if fnv1a_bytes payload graph_start (graph_end - graph_start) <> digest
      then failwith "Artifact.load: graph digest mismatch";
      let slt_root = get_u32 c in
      let spanner_stretch = get_f64 c in
      let spanner_edges = get_edge_list c in
      let slt_edges = get_edge_list c in
      let mst_edges = get_edge_list c in
      let params = get_pairs c in
      let notes = get_pairs c in
      if c.pos <> len then failwith "Artifact.load: payload length mismatch";
      let t =
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
      in
      List.iter
        (fun (name, ids) -> ignore (check_edges graph name ids))
        [
          ("spanner", spanner_edges); ("slt", slt_edges); ("mst", mst_edges);
        ];
      t
      with End_of_file -> failwith "Artifact.load: truncated artifact file")

let pp ppf t =
  Format.fprintf ppf
    "artifact(v%d, graph n=%d m=%d, digest %s, spanner %d edges (t<=%.2f), slt %d edges @@ root %d, mst %d edges, %d params, %d notes)"
    version (Graph.n t.graph) (Graph.m t.graph) (digest_hex t)
    (List.length t.spanner_edges) t.spanner_stretch
    (List.length t.slt_edges) t.slt_root
    (List.length t.mst_edges) (List.length t.params) (List.length t.notes)
