type v =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let parse (s : string) : v =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos else fail "expected %c at offset %d" c !pos
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; incr pos
         | '\\' -> Buffer.add_char b '\\'; incr pos
         | '/' -> Buffer.add_char b '/'; incr pos
         | 'b' -> Buffer.add_char b '\b'; incr pos
         | 'f' -> Buffer.add_char b '\012'; incr pos
         | 'n' -> Buffer.add_char b '\n'; incr pos
         | 'r' -> Buffer.add_char b '\r'; incr pos
         | 't' -> Buffer.add_char b '\t'; incr pos
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           let cp =
             try int_of_string ("0x" ^ hex)
             with _ -> fail "bad \\u escape %s" hex
           in
           (* UTF-8 encode the BMP code point. *)
           if cp < 0x80 then Buffer.add_char b (Char.chr cp)
           else if cp < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
           end;
           pos := !pos + 5
         | c -> fail "bad escape \\%c" c);
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    let integral =
      not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok)
    in
    match (if integral then int_of_string_opt tok else None) with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Num f
      | None -> fail "bad number %S at offset %d" tok start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } at offset %d" !pos
        in
        members []
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elems (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] at offset %d" !pos
        in
        elems []
      end
    | '"' -> Str (parse_string ())
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let parse_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let path keys v = List.fold_left (fun v k -> member k v) v keys
let to_list = function Arr l -> l | _ -> fail "expected array"
let to_string = function Str s -> s | _ -> fail "expected string"
let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Num f -> Some f
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Num f -> Some (int_of_float f)
  | _ -> None

let to_float v =
  match to_float_opt v with Some f -> f | None -> fail "expected number"

let to_int v =
  match to_int_opt v with Some i -> i | None -> fail "expected number"

let to_string_opt = function Str s -> Some s | _ -> None

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let escape s =
  let b = Buffer.create (String.length s + 2) in
  add_escaped b s;
  Buffer.contents b

(* Text that [parse] reads back as [Num f], bit for bit: [%.15g] when
   that is exact, which keeps common values short, else [%.17g], which
   always is. Integral values below 1e17 print with a ".0" instead,
   because [%.17g] prints bare digits there, which read back as [Int].
   JSON has no infinities, so they print as a literal that overflows to
   them when parsed; NaN has no spelling at all. *)
let num_text f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e17 then Printf.sprintf "%.1f" f
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Objects one member per line (indented two spaces per level), arrays
   inline: the BENCH_*.json layout. [compact] drops every newline and
   space, for one-record-per-line files. *)
let to_text ?(compact = false) v =
  let b = Buffer.create 256 in
  let rec emit indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Num f -> Buffer.add_string b (num_text f)
    | Str s -> add_escaped b s
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b (if compact then "," else ", ");
          emit indent x)
        xs;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      let pad k =
        if not compact then Buffer.add_string b ("\n" ^ String.make k ' ')
      in
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          pad (indent + 2);
          add_escaped b k;
          Buffer.add_string b (if compact then ":" else ": ");
          emit (indent + 2) v)
        kvs;
      pad indent;
      Buffer.add_char b '}'
  in
  emit 0 v;
  Buffer.contents b
