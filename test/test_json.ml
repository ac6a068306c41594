(* The one JSON codec: canonical printing is a parse fixpoint, non-float
   documents round-trip structurally, malformed input and nesting past
   [Json.max_depth] are [Error]s rather than exceptions. *)

module Json = Ermes_json.Json

(* Canonical rendering is a fixpoint: parse it back, print again, get the
   same bytes. (Structural equality would be too strong for floats — the
   fixpoint is the actual contract the cache and the tests rely on.) *)
let prop_codec_fixpoint j =
  let s = Json.to_string j in
  match Json.of_string s with
  | Error e -> QCheck2.Test.fail_reportf "reparse failed on %s: %s" s e
  | Ok j' -> String.equal s (Json.to_string j')

let test_codec_fixpoint =
  Helpers.qtest ~count:500 "to_string is a parse fixpoint" Helpers.json_gen
    prop_codec_fixpoint

(* Non-float documents round-trip structurally, not just textually. *)
let rec no_floats = function
  | Json.Float _ -> false
  | Json.Arr xs -> List.for_all no_floats xs
  | Json.Obj kvs -> List.for_all (fun (_, v) -> no_floats v) kvs
  | _ -> true

let prop_codec_structural j =
  QCheck2.assume (no_floats j);
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j = j'
  | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" e

let test_codec_structural =
  Helpers.qtest ~count:500 "non-float documents round-trip structurally"
    Helpers.json_gen prop_codec_structural

let test_codec_rejects_nonfinite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "rendered non-finite float as %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_codec_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* The escaper the printf-laid reports use is exactly the body of a
   canonical string literal. *)
let prop_escape_is_string_body s =
  String.equal (Json.to_string (Json.Str s)) ("\"" ^ Json.escape s ^ "\"")

let test_escape_is_string_body =
  Helpers.qtest ~count:500 "escape is the string literal body"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 24))
    prop_escape_is_string_body

(* [max_depth] nested containers parse; one more is an [Error], for arrays,
   objects and a mix, and so is a hostile document far past the bound. *)
let test_depth_bound () =
  let arrays d = String.make d '[' ^ String.make d ']' in
  let objects d =
    String.concat "" (List.init d (fun _ -> "{\"k\":")) ^ "null" ^ String.make d '}'
  in
  let mixed d =
    String.concat "" (List.init d (fun i -> if i mod 2 = 0 then "[" else "{\"k\":"))
    ^ "0"
    ^ String.concat ""
        (List.init d (fun i -> if (d - 1 - i) mod 2 = 0 then "]" else "}"))
  in
  List.iter
    (fun (name, doc) ->
      (match Json.of_string (doc Json.max_depth) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s at the bound rejected: %s" name e);
      match Json.of_string (doc (Json.max_depth + 1)) with
      | Error e ->
        Alcotest.(check bool) (name ^ " error names the bound") true
          (Astring_contains.contains e (string_of_int Json.max_depth))
      | Ok _ -> Alcotest.failf "%s past the bound accepted" name)
    [ ("arrays", arrays); ("objects", objects); ("mixed", mixed) ];
  match Json.of_string (String.make 1_000_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a million unclosed brackets"

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          test_codec_fixpoint;
          test_codec_structural;
          Alcotest.test_case "rejects non-finite floats" `Quick
            test_codec_rejects_nonfinite;
          Alcotest.test_case "parse errors" `Quick test_codec_parse_errors;
          test_escape_is_string_body;
          Alcotest.test_case "nesting bound" `Quick test_depth_bound;
        ] );
    ]
