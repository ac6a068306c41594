module Json = Ermes_json.Json

let proto_version = 1

(* ---- framing ------------------------------------------------------------- *)

let default_max_frame = 16 * 1024 * 1024

let max_frame_bytes () =
  match Sys.getenv_opt "ERMES_MAX_FRAME_BYTES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> default_max_frame)
  | None -> default_max_frame

let frame payload =
  let n = String.length payload in
  if n > max_frame_bytes () then
    invalid_arg
      (Printf.sprintf "Proto.frame: payload of %d bytes exceeds the %d-byte frame limit"
         n (max_frame_bytes ()));
  Printf.sprintf "%d\n%s" n payload

(* The decoder accumulates raw bytes and peels frames. The length prefix is
   parsed before any payload is retained, so a hostile peer cannot make the
   daemon buffer more than [max_frame_bytes] + one prefix line. *)
type decoder = {
  buf : Buffer.t;
  mutable expecting : int option;  (** payload length once the prefix parsed *)
  mutable poisoned : string option;
}

let decoder () = { buf = Buffer.create 512; expecting = None; poisoned = None }

let feed d bytes n = Buffer.add_subbytes d.buf bytes 0 n

let buffered d = Buffer.length d.buf

let pending d =
  d.poisoned = None && (d.expecting <> None || Buffer.length d.buf > 0)

(* Drop the first [k] bytes of the buffer. *)
let consume d k =
  let s = Buffer.contents d.buf in
  Buffer.clear d.buf;
  Buffer.add_substring d.buf s k (String.length s - k)

let rec next d =
  match d.poisoned with
  | Some e -> Error e
  | None -> (
    let poison e =
      d.poisoned <- Some e;
      Error e
    in
    match d.expecting with
    | None -> (
      let s = Buffer.contents d.buf in
      match String.index_opt s '\n' with
      | None ->
        (* No prefix yet; a prefix longer than the digits of the frame limit
           is already hostile. *)
        if String.length s > 24 then poison "oversized frame length prefix"
        else Ok None
      | Some nl -> (
        let prefix = String.sub s 0 nl in
        match int_of_string_opt (String.trim prefix) with
        | Some len when len >= 0 && len <= max_frame_bytes () ->
          consume d (nl + 1);
          d.expecting <- Some len;
          next d
        | Some len -> poison (Printf.sprintf "frame of %d bytes exceeds the limit" len)
        | None -> poison (Printf.sprintf "bad frame length prefix %S" prefix)))
    | Some len ->
      if Buffer.length d.buf < len then Ok None
      else begin
        let s = Buffer.contents d.buf in
        let payload = String.sub s 0 len in
        consume d len;
        d.expecting <- None;
        Ok (Some payload)
      end)

(* ---- requests and replies ------------------------------------------------ *)

type request = { id : int; verb : string; body : Json.t }

let parse_request payload =
  match Json.of_string payload with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok body -> (
    match (Json.int_member "id" body, Json.str_member "verb" body) with
    | Some id, Some verb -> Ok { id; verb; body }
    | None, _ -> Error "request is missing an integer \"id\""
    | _, None -> Error "request is missing a string \"verb\"")

let code_of_status = function
  | "ok" -> 0
  | "bad-request" | "invalid" -> 1
  | "findings" | "deadlock" | "crash" -> 2
  | "timeout" | "overloaded" | "client-cap" | "degraded" | "shutting-down" -> 3
  | _ -> 1

open Json

let reply ?(extra = []) ~id ~verb status =
  Obj
    ([
       ("id", Int id);
       ("verb", Str verb);
       ("status", Str status);
       ("code", Int (code_of_status status));
     ]
    @ extra)

let error_reply ?(extra = []) ~id ~verb ~status msg =
  reply ~extra:(("error", Str msg) :: extra) ~id ~verb status

let hello_request ~client =
  Obj
    [
      ("id", Int 0);
      ("verb", Str "hello");
      ("proto_version", Int proto_version);
      ("client", Str client);
    ]

let hello_reply ~id ~server =
  reply
    ~extra:[ ("proto_version", Int proto_version); ("server", Str server) ]
    ~id ~verb:"hello" "ok"
