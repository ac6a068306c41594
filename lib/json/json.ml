type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- emitter ------------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_to_string f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Json.to_string: NaN/inf is not JSON"
  else
    (* A forced decimal point (or exponent) makes the parser read the value
       back as a float, keeping round-trips type-stable. *)
    let s = Printf.sprintf "%.12g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
    else s ^ ".0"

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---- parser -------------------------------------------------------------- *)

exception Bad of string

let max_depth = 256

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> raise (Bad (Printf.sprintf "expected %C at byte %d, got %C" c !pos d))
    | None -> raise (Bad (Printf.sprintf "expected %C at end of input" c))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      let c = text.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then raise (Bad "unterminated escape");
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then raise (Bad "truncated \\u escape");
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x100 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> raise (Bad "non-latin1 \\u escape unsupported")
          | None -> raise (Bad "bad \\u escape"))
        | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      v
    end
    else raise (Bad "bad literal")
  in
  (* [depth] counts the containers enclosing a value; refusing to open one
     past [max_depth] keeps the recursion, and so a hostile frame's cost,
     bounded. *)
  let enter depth =
    if depth >= max_depth then
      raise (Bad (Printf.sprintf "nesting deeper than %d at byte %d" max_depth !pos));
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      enter depth;
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> raise (Bad "expected ',' or '}' in object")
        in
        Obj (members [])
      end
    | Some '[' ->
      enter depth;
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> raise (Bad "expected ',' or ']' in array")
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      if peek () = Some '-' then advance ();
      let digits () =
        while !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false do
          advance ()
        done
      in
      digits ();
      let is_float = ref false in
      if peek () = Some '.' then begin
        is_float := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let token = String.sub text start (!pos - start) in
      if !is_float then
        match float_of_string_opt token with
        | Some f -> Float f
        | None -> raise (Bad ("bad number " ^ token))
      else (
        match int_of_string_opt token with
        | Some i -> Int i
        | None -> raise (Bad ("bad number " ^ token)))
    | Some c -> raise (Bad (Printf.sprintf "unexpected %C" c))
    | None -> raise (Bad "unexpected end of input")
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str_member key v =
  match member key v with Some (Str s) -> Some s | _ -> None

let int_member key v = match member key v with Some (Int i) -> Some i | _ -> None

let bool_member key v =
  match member key v with Some (Bool b) -> Some b | _ -> None

