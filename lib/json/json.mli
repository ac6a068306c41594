(** The one JSON codec of ERMES: the daemon's wire format ({!Ermes_serve.Proto}),
    [ermes lint --format json], and the string escaper behind the printf-laid
    [ermes batch --json] report and the [--trace] Chrome trace.

    Dependency-free and deliberately small: the emitter produces canonical
    single-line documents, the parser accepts standard JSON (objects, arrays,
    strings, integers, floats, booleans, null) with [\u] escapes limited to
    Latin-1. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal, without the surrounding quotes: the
    double quote and the backslash are backslash-escaped, newline, tab and
    carriage return become their two-character escapes, other control
    characters become [\u00XX], and every other byte is copied. *)

val to_string : t -> string
(** Canonical single-line rendering (object fields in given order, strings
    {!escape}d, floats as [%.12g] with a forced decimal point so they read
    back as floats, never NaN/inf — those raise [Invalid_argument]). The
    rendering is a fixpoint of [to_string ∘ of_string]. *)

val max_depth : int
(** 256: the deepest nesting of arrays and objects {!of_string} accepts
    ([[]] is depth 1). A fixed constant, not a setting: documents ERMES
    reads are at most 4 levels deep, and the bound keeps the recursive
    parser's cost linear on hostile input such as a 16 MiB daemon frame of
    ['['] bytes. *)

val of_string : string -> (t, string) result
(** Parses one document; [Error] on malformed input, trailing garbage or
    nesting deeper than {!max_depth}. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val str_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option
