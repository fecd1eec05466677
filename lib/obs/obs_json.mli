(** The one JSON codec: parser, accessors and printer.

    Every JSON file the repo reads back (telemetry traces, metrics
    snapshots, BENCH_*.json) is parsed here, and every JSON writer
    escapes its strings here; the benches and the scenario runner
    print whole documents with {!to_text}. It only needs to cover the
    JSON we produce ourselves — no streaming, no number-preservation
    exotica beyond exact integers. Kept in [ln_obs] so the bottom of
    the dependency stack (and tools like [bench_diff]) can use it
    without pulling in the engine. *)

type v =
  | Null
  | Bool of bool
  | Int of int  (** an integer literal; printed exactly *)
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Error of string

val parse : string -> v
(** Parse a complete JSON document. Raises {!Error} on malformed
    input, including trailing garbage. Number literals without a
    fraction or exponent that fit an OCaml [int] come back as [Int];
    every other number as [Num]. *)

val parse_file : string -> v
(** [parse_file path] reads and parses [path]. Raises {!Error} on
    malformed JSON and [Sys_error] on IO failure. *)

(** {1 Accessors}

    Total accessors return [Null]/[None] rather than raising, so
    callers can probe optional structure; the [to_*] coercions raise
    {!Error} when the shape is wrong. The numeric coercions accept
    both [Int] and [Num]. *)

val member : string -> v -> v
(** Object field lookup; [Null] when absent or not an object. *)

val path : string list -> v -> v
(** Nested {!member}: [path ["a"; "b"] v] is [member "b" (member "a" v)]. *)

val to_list : v -> v list
val to_string : v -> string
val to_float : v -> float
val to_int : v -> int
val to_float_opt : v -> float option
val to_int_opt : v -> int option
val to_string_opt : v -> string option

(** {1 Printing} *)

val escape : string -> string
(** JSON string escaping, including the surrounding quotes. *)

val add_escaped : Buffer.t -> string -> unit
(** Buffer version of {!escape}. *)

val to_text : ?compact:bool -> v -> string
(** Print a value. The default layout is the BENCH_*.json one: objects
    one member per line, indented two spaces per level, arrays inline.
    [~compact:true] prints it all on one line without spaces. Integers
    print exactly, floats as [%.6g], and non-finite floats as [null].
    No trailing newline. *)
