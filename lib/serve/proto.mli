(** Wire protocol of [ermes serve]: length-prefixed JSON frames.

    A frame is the decimal byte length of a JSON document, a newline, and
    the document itself:

    {v
    42\n{"id":1,"verb":"analyze","design":"..."}
    v}

    The prefix makes framing independent of the payload (a design text may
    contain anything), keeps the decoder allocation-bounded (a hostile
    length is rejected before any buffering), and still leaves the stream
    readable in a terminal. Payloads are {!Ermes_json.Json} documents: the
    canonical single-line rendering out, standard JSON nested at most
    {!Ermes_json.Json.max_depth} deep in.

    Versioning: the first frame a client sends must be a [hello] carrying
    [proto_version]; the server answers with its own and refuses mismatched
    majors with a structured [bad-request] reply before closing. See
    DESIGN.md §12 for the full request/response taxonomy.

    Every reply carries [status] and [code]; [code] mirrors the CLI's
    uniform exit contract — 0 ok, 1 invalid input, 2 deadlock / findings /
    crash, 3 timeout / overload / degraded service — so a thin client can
    [exit] with it directly. *)

val proto_version : int
(** Current protocol version: 1. *)

(** {1 Framing} *)

val max_frame_bytes : unit -> int
(** Ceiling on a single frame's payload (default 16 MiB; override with the
    [ERMES_MAX_FRAME_BYTES] environment variable). Both sides enforce it —
    the decoder rejects a hostile length before buffering anything. *)

val frame : string -> string
(** [frame payload] is the encoded frame ["<len>\n<payload>"].
    @raise Invalid_argument beyond {!max_frame_bytes}. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf] to the decode
    stream. *)

val next : decoder -> (string option, string) result
(** [Ok (Some payload)] when a complete frame is buffered, [Ok None] when
    more bytes are needed, [Error _] on a malformed or oversized length
    prefix (the connection should be closed; the decoder is poisoned). *)

val buffered : decoder -> int
(** Bytes currently held by the decoder (diagnostics). *)

val pending : decoder -> bool
(** A frame is partially buffered: the decoder holds bytes (or a parsed
    length prefix) that {!next} cannot yet complete. The server's
    per-connection frame-read deadline keys off this — a client holding a
    half-frame open is a slow-loris, not an idle peer. *)

(** {1 Requests and replies} *)

type request = {
  id : int;  (** client-chosen; echoed verbatim in the reply *)
  verb : string;
  body : Ermes_json.Json.t;  (** the whole request object, for verb-specific fields *)
}

val parse_request : string -> (request, string) result
(** Decodes one frame payload: must be an object with an integer [id] and a
    string [verb]. *)

val code_of_status : string -> int
(** The exit-contract code a status maps to: [ok] 0; [bad-request],
    [invalid] 1; [findings], [deadlock], [crash] 2; [timeout],
    [overloaded], [client-cap], [degraded], [shutting-down] 3. Unknown
    statuses map to 1. *)

val reply :
  ?extra:(string * Ermes_json.Json.t) list ->
  id:int ->
  verb:string ->
  string ->
  Ermes_json.Json.t
(** [reply ~id ~verb status] builds the canonical reply object
    [{"id";"verb";"status";"code";...extra}] with [code] from
    {!code_of_status}. *)

val error_reply :
  ?extra:(string * Ermes_json.Json.t) list ->
  id:int ->
  verb:string ->
  status:string ->
  string ->
  Ermes_json.Json.t
(** A reply with an [error] message field. *)

val hello_request : client:string -> Ermes_json.Json.t
val hello_reply : id:int -> server:string -> Ermes_json.Json.t
