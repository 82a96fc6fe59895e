(** A tiny self-contained JSON parser and printer.

    One implementation shared by the HTTP request/response bodies of
    {!Server}, the bench harness's [BENCH_*.json] rows and the
    exporter tests (which previously carried their own in-test parser).
    The repo deliberately has no JSON dependency; this module is the
    whole story: UTF-8 pass-through strings, floats for every number,
    objects as association lists in source order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Parse a complete JSON document.
    @raise Parse_error with a position-tagged message on malformed
    input, including trailing garbage. *)

val parse_result : string -> (t, string) result
(** {!parse} with the error as a value — the boundary the HTTP layer
    uses, so a bad body never raises across the connection handler. *)

(** {1 Printing} *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace).  Integral numbers
    print without a decimal point; everything else as shortest-roundtrip
    [%.12g].  Non-finite numbers render as [null] (JSON has no NaN). *)

val pp : Format.formatter -> t -> unit

val escape : string -> string
(** The string-literal body escaping used by {!to_string} (also handy
    for hand-assembled JSON elsewhere). *)

(** {1 Accessors} *)

val mem : string -> t -> t option
(** [mem k (Obj fields)] is the value under key [k]; [None] on missing
    keys and non-objects. *)

val str : t -> string
(** @raise Invalid_argument when not a [Str]. *)

val num : t -> float
(** @raise Invalid_argument when not a [Num]. *)

val str_opt : t -> string option
val num_opt : t -> float option
val list_opt : t -> t list option
