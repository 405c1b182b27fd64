(** Minimal JSON support: a read-only parser for the machine-readable
    documents this repository itself reads (the observability exports
    and trace files, the daemon's JSON-lines ingest), and the string
    escaping the hand-rolled writers share.

    Deliberately not a general-purpose JSON library (the repo has no
    JSON dependency by design): no streaming, the whole document is in
    memory, and [\uXXXX] escapes outside the Basic Multilingual Plane
    (surrogate pairs) are rejected. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [parse s] parses exactly one JSON document spanning all of [s]
    (surrounding whitespace allowed).  Errors carry a byte offset. *)

val parse_exn : string -> t
(** @raise Failure with the [parse] error message. *)

val escape : string -> string
(** [escape s] is the JSON string-body encoding of [s] (no
    surrounding quotes): double quotes, backslashes and control
    characters are escaped (newline/tab/CR named, other controls as
    [\u00XX]).  Round-trips through {!parse}. *)

val member : string -> t -> t option
(** [member k (Obj ...)] finds field [k]; [None] on other variants. *)

val str : t -> string option
val num : t -> float option
