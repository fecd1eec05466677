(* Resealed artifact mutants for the loader and store tests. Each is a
   canonical artifact's bytes with one field broken and both hashes
   recomputed (the graph digest, then the payload checksum), so that
   only the loader's own field checks stand between it and a store.
   Layout: a 28-byte header, then the payload, which opens with n, m
   and 16 bytes per edge (u32 u, u32 v, f64 w), followed by the graph
   digest, the SLT root, the stretch and the three edge-id lists. *)

let header = 28

let fnv1a b off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        0x100000001b3L
  done;
  !h

let get32 b off = Int32.to_int (Bytes.get_int32_le b off)
let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let n_of b = get32 b header
let m_of b = get32 b (header + 4)

(* Offset of the graph digest: the end of the graph section. *)
let digest_at b = header + 8 + (16 * m_of b)

let reseal b =
  let graph_len = digest_at b - header in
  Bytes.set_int64_le b (digest_at b) (fnv1a b header graph_len);
  Bytes.set_int64_le b 20 (fnv1a b header (Bytes.length b - header));
  b

(* The name a store files the mutant under: its (recomputed) digest. *)
let digest_hex b = Printf.sprintf "%016Lx" (Bytes.get_int64_le b (digest_at b))

(* Offset of the first id of edge-id list [k] (0 spanner, 1 slt,
   2 mst); each list is a u32 count and then its ids. *)
let list_at b k =
  let rec skip pos k =
    if k = 0 then pos + 4 else skip (pos + 4 + (4 * get32 b pos)) (k - 1)
  in
  skip (digest_at b + 8 + 4 + 8) k

(* [(name, bytes, what the rejection must mention)] for the canonical
   artifact bytes [canon]; every list of [canon] must be non-empty. *)
let mutants canon =
  let edit f =
    let b = Bytes.of_string canon in
    f b;
    reseal b
  in
  let edge0 = header + 8 in
  [
    ( "zero weight",
      edit (fun b -> Bytes.set_int64_le b (edge0 + 8) (Int64.bits_of_float 0.0)),
      "edge 0 weight" );
    ("endpoint >= n", edit (fun b -> set32 b (edge0 + 4) (n_of b)), "edge 0 endpoints");
    ( "edges swapped",
      edit (fun b ->
          let e0 = Bytes.sub b edge0 16 in
          Bytes.blit b (edge0 + 16) b edge0 16;
          Bytes.blit e0 0 b (edge0 + 16) 16),
      "edge 1" );
    ( "spanner edge id >= m",
      edit (fun b -> set32 b (list_at b 0) (m_of b)),
      "spanner edge id" );
    ("slt edge id >= m", edit (fun b -> set32 b (list_at b 1) (m_of b)), "slt edge id");
    ("mst edge id >= m", edit (fun b -> set32 b (list_at b 2) (m_of b)), "mst edge id");
    ("slt root >= n", edit (fun b -> set32 b (digest_at b + 8) (n_of b)), "slt_root");
  ]

let mentions s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0
