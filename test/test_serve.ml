(* The serving layer: framing, admission queue, warm cache, incremental
   sessions, the batch verb, and an embedded daemon over real sockets.

   Anchor properties: frames survive any chunking; the admission queue
   admits exactly [capacity] items beyond the consumers and computes its
   retry hints deterministically; a session re-analysis agrees with a fresh
   analysis of the same design on every path (warm, rebuilt, fresh); the
   batch verb classifies every job exactly as [ermes batch] does; a
   hostile frame costs its sender a bad-request, not the daemon its other
   connections. test/serve.t and the CI serve-smoke job drive the CLI
   daemon end to end. *)

module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module Perf = Ermes_core.Perf
module Ratio = Ermes_tmg.Ratio
module Incremental = Ermes_core.Incremental
module Supervise = Ermes_runtime.Supervise
module Cancel = Supervise.Cancel
module Json = Ermes_json.Json
module Proto = Ermes_serve.Proto
module Admission = Ermes_serve.Admission
module Cache = Ermes_serve.Cache
module Session = Ermes_serve.Session
module Server = Ermes_serve.Server
module Handler = Ermes_serve.Handler
module Batch = Ermes_runtime.Batch

let contains = Astring_contains.contains

(* ---- framing ------------------------------------------------------------- *)

(* Frames fed to the decoder in arbitrary chunk sizes come back whole and
   in order. *)
let prop_decoder_chunking (payloads, cuts) =
  let payloads = List.map Json.to_string payloads in
  let stream = String.concat "" (List.map Proto.frame payloads) in
  let dec = Proto.decoder () in
  let out = ref [] in
  let drain () =
    let rec go () =
      match Proto.next dec with
      | Ok (Some p) ->
        out := p :: !out;
        go ()
      | Ok None -> ()
      | Error e -> QCheck2.Test.fail_reportf "decoder error: %s" e
    in
    go ()
  in
  let n = String.length stream in
  let pos = ref 0 in
  List.iter
    (fun cut ->
      if !pos < n then begin
        let len = 1 + (cut mod max 1 (n - !pos)) in
        let len = min len (n - !pos) in
        Proto.feed dec (Bytes.of_string (String.sub stream !pos len)) len;
        pos := !pos + len;
        drain ()
      end)
    cuts;
  if !pos < n then begin
    Proto.feed dec (Bytes.of_string (String.sub stream !pos (n - !pos))) (n - !pos);
    drain ()
  end;
  List.rev !out = payloads && Proto.buffered dec = 0

let test_decoder_chunking =
  Helpers.qtest ~count:300 "decoder reassembles frames across any chunking"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 5) Helpers.json_gen)
        (list_size (int_range 1 40) (int_range 1 64)))
    prop_decoder_chunking

let test_decoder_poisons_on_bad_prefix () =
  let dec = Proto.decoder () in
  let junk = "not-a-length\n{}" in
  Proto.feed dec (Bytes.of_string junk) (String.length junk);
  (match Proto.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a junk length prefix");
  (* Poisoned: even valid bytes afterwards never produce a frame. *)
  let good = Proto.frame "{}" in
  Proto.feed dec (Bytes.of_string good) (String.length good);
  match Proto.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered after poisoning"

let test_decoder_rejects_oversized () =
  let dec = Proto.decoder () in
  let huge = Printf.sprintf "%d\n" (Proto.max_frame_bytes () + 1) in
  Proto.feed dec (Bytes.of_string huge) (String.length huge);
  match Proto.next dec with
  | Error e ->
    Alcotest.(check bool) "mentions the limit" true (contains e "frame")
  | Ok _ -> Alcotest.fail "accepted an oversized frame length"

let test_parse_request () =
  (match Proto.parse_request {|{"id":7,"verb":"analyze","design":"x"}|} with
  | Ok r ->
    Alcotest.(check int) "id" 7 r.Proto.id;
    Alcotest.(check string) "verb" "analyze" r.Proto.verb
  | Error e -> Alcotest.failf "rejected a valid request: %s" e);
  List.iter
    (fun s ->
      match Proto.parse_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ {|{"verb":"analyze"}|}; {|{"id":1}|}; {|[1,2]|}; {|{"id":"x","verb":"v"}|} ]

let test_status_codes () =
  List.iter
    (fun (status, code) ->
      Alcotest.(check int) status code (Proto.code_of_status status))
    [
      ("ok", 0);
      ("bad-request", 1);
      ("invalid", 1);
      ("findings", 2);
      ("deadlock", 2);
      ("crash", 2);
      ("timeout", 3);
      ("overloaded", 3);
      ("client-cap", 3);
      ("degraded", 3);
      ("shutting-down", 3);
      ("never-heard-of-it", 1);
    ]

(* ---- admission queue ------------------------------------------------------ *)

(* With no consumer, exactly [capacity] items are admitted; every rejection
   carries the deterministic hint for the depth it observed. *)
let prop_admission_bounds (capacity, pushes) =
  let q = Admission.create ~capacity in
  let ok = ref true in
  List.iteri
    (fun i x ->
      match Admission.try_enqueue q x with
      | Admission.Admitted depth ->
        if i >= capacity || depth <> i + 1 then ok := false
      | Admission.Rejected { depth; retry_after_ms } ->
        if i < capacity then ok := false;
        if depth <> capacity then ok := false;
        if retry_after_ms <> Admission.retry_after_ms ~capacity ~depth then
          ok := false
      | Admission.Closed -> ok := false)
    pushes;
  (* FIFO: what was admitted comes out in push order. *)
  let admitted = ref [] in
  Admission.close q;
  let rec drain () =
    match Admission.dequeue q with
    | Some x ->
      admitted := x :: !admitted;
      drain ()
    | None -> ()
  in
  drain ();
  !ok
  && List.rev !admitted
     = List.filteri (fun i _ -> i < capacity) pushes

let test_admission_bounds =
  Helpers.qtest ~count:300 "admission bound + deterministic retry hints"
    QCheck2.Gen.(
      pair (int_range 0 8) (list_size (int_range 0 24) (int_range 0 1000)))
    prop_admission_bounds

let test_retry_hint_formula () =
  Alcotest.(check int) "depth 0" 25 (Admission.retry_after_ms ~capacity:4 ~depth:0);
  Alcotest.(check int) "depth 3" 100 (Admission.retry_after_ms ~capacity:4 ~depth:3);
  Alcotest.(check int) "capped" 5000
    (Admission.retry_after_ms ~capacity:1000 ~depth:999)

let test_admission_close () =
  let q = Admission.create ~capacity:4 in
  (match Admission.try_enqueue q 1 with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "first enqueue refused");
  Admission.close q;
  (match Admission.try_enqueue q 2 with
  | Admission.Closed -> ()
  | _ -> Alcotest.fail "enqueue after close not Closed");
  Alcotest.(check (list int)) "drain returns the backlog" [ 1 ] (Admission.drain q);
  Alcotest.(check bool) "dequeue after close+drain" true
    (Admission.dequeue q = None)

(* A blocked consumer wakes on close, and every item is consumed exactly
   once across two consumer domains. *)
let test_admission_concurrent () =
  let q = Admission.create ~capacity:64 in
  let seen = Atomic.make 0 in
  let consumer () =
    let rec go acc =
      match Admission.dequeue q with
      | Some x -> go (acc + x)
      | None ->
        ignore (Atomic.fetch_and_add seen acc);
        ()
    in
    go 0
  in
  let d1 = Domain.spawn consumer and d2 = Domain.spawn consumer in
  let total = ref 0 in
  for i = 1 to 50 do
    match Admission.try_enqueue q i with
    | Admission.Admitted _ -> total := !total + i
    | Admission.Rejected _ | Admission.Closed -> ()
  done;
  Admission.close q;
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "every admitted item consumed once" !total
    (Atomic.get seen)

(* ---- warm cache ----------------------------------------------------------- *)

let test_cache_bounds_and_stats () =
  let c = Cache.create ~capacity:4 in
  for i = 0 to 9 do
    Cache.add c (string_of_int i) i
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "size bounded" 4 s.Cache.size;
  Alcotest.(check int) "evictions" 6 s.Cache.evictions;
  Alcotest.(check bool) "newest present" true (Cache.find c "9" = Some 9);
  Alcotest.(check bool) "oldest evicted" true (Cache.find c "0" = None);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses

let test_cache_lru_recency () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  ignore (Cache.find c "a");
  Cache.add c "c" 3;
  (* "b" was the least recently used, so it is the victim. *)
  Alcotest.(check bool) "a survives" true (Cache.find c "a" = Some 1);
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "c present" true (Cache.find c "c" = Some 3)

let test_cache_key_is_content_hash () =
  let k1 = Cache.key_of_canonical "system a\n"
  and k2 = Cache.key_of_canonical "system a\n"
  and k3 = Cache.key_of_canonical "system b\n" in
  Alcotest.(check string) "same text, same key" k1 k2;
  Alcotest.(check bool) "different text, different key" true (k1 <> k3)

(* Raw aliases: a digest of a request's exact bytes names the entry its
   canonical key reached, one alias per entry, evicted with it. *)
let test_cache_raw_alias () =
  let c = Cache.create ~capacity:2 in
  let ra = Digest.string "a text" and ra' = Digest.string "a reformatted" in
  Alcotest.(check bool) "unknown bytes" true (Cache.find_raw c ra = None);
  Cache.add c ~raw:ra "A" 1;
  Alcotest.(check bool) "alias hit" true (Cache.find_raw c ra = Some ("A", 1));
  Alcotest.(check bool) "canonical hit moves the alias" true (Cache.find c ~raw:ra' "A" = Some 1);
  Alcotest.(check bool) "old bytes forgotten" true (Cache.find_raw c ra = None);
  Alcotest.(check bool) "new bytes known" true (Cache.find_raw c ra' = Some ("A", 1));
  Alcotest.(check bool) "raw digests are not keys" true
    (Cache.find c (Digest.to_hex ra') = None);
  Cache.add c ~raw:(Digest.string "b") "B" 2;
  Cache.add c ~raw:(Digest.string "c") "C" 3;
  let s = Cache.stats c in
  Alcotest.(check bool) "A evicted with its alias" true (Cache.find_raw c ra' = None);
  Alcotest.(check int) "aliases bounded by entries" 2 s.Cache.aliases;
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "raw hits" 2 s.Cache.raw_hits;
  Alcotest.(check int) "raw misses count nothing" 1 s.Cache.misses

(* ---- analyze through the cache ------------------------------------------- *)

let read_data f = In_channel.with_open_bin (Filename.concat "../data" f) In_channel.input_all

let cache_deps capacity =
  {
    Handler.cache = Cache.create ~capacity;
    sessions = Session.create_table ~clock:Unix.gettimeofday ();
    rounds = 64;
  }

let call deps verb fields =
  let body = Json.Obj ([ ("id", Json.Int 1); ("verb", Json.Str verb) ] @ fields) in
  Handler.execute deps ~cancel:(Cancel.make ()) ~attempts:(ref 0) ~client:"t"
    { Proto.id = 1; verb; body }

let analyze ?session deps text =
  call deps "analyze"
    (("design", Json.Str text)
    :: Option.fold ~none:[] ~some:(fun n -> [ ("session", Json.Str n) ]) session)

let check_counts deps what ~hits ~raw_hits ~misses =
  let s = Cache.stats deps.Handler.cache in
  Alcotest.(check (triple int int int))
    (what ^ ": hits, raw hits, misses")
    (hits, raw_hits, misses)
    (s.Cache.hits, s.Cache.raw_hits, s.Cache.misses)

(* The hit reply is the cold reply with [cached] flipped: whichever path
   finds the entry, the bytes are the same. *)
let as_hit cold =
  match cold with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.map
            (function "cached", _ -> ("cached", Json.Bool true) | f -> f)
            fields))
  | _ -> Alcotest.fail "reply is not an object"

let test_analyze_raw_and_reformatted () =
  let deps = cache_deps 8 in
  let text = read_data "motivating.soc" in
  let reformatted =
    "# the same design, reformatted\n\n"
    ^ String.concat "   " (String.split_on_char ' ' text)
    ^ "\n# trailing comment\n"
  in
  let cold = analyze deps text in
  Alcotest.(check (option bool)) "cold" (Some false) (Json.bool_member "cached" cold);
  check_counts deps "cold" ~hits:0 ~raw_hits:0 ~misses:1;
  let hit = as_hit cold in
  Alcotest.(check string) "byte-identical re-send" hit (Json.to_string (analyze deps text));
  check_counts deps "re-send" ~hits:1 ~raw_hits:1 ~misses:1;
  Alcotest.(check string) "reformatted copy" hit (Json.to_string (analyze deps reformatted));
  check_counts deps "reformatted" ~hits:2 ~raw_hits:1 ~misses:1;
  Alcotest.(check string) "reformatted re-send" hit
    (Json.to_string (analyze deps reformatted));
  check_counts deps "reformatted re-send" ~hits:3 ~raw_hits:2 ~misses:1;
  Alcotest.(check int) "one entry, one alias" 1 (Cache.stats deps.Handler.cache).Cache.aliases

let test_analyze_raw_after_eviction () =
  let deps = cache_deps 1 in
  let a = read_data "motivating.soc" and b = read_data "motivating_suboptimal.soc" in
  let cached r = Json.bool_member "cached" r in
  let first = analyze deps a in
  ignore (analyze deps b);
  let s = Cache.stats deps.Handler.cache in
  Alcotest.(check (pair int int)) "a evicted with its alias" (1, 1)
    (s.Cache.evictions, s.Cache.aliases);
  let again = analyze deps a in
  Alcotest.(check (option bool)) "re-sent bytes recompute" (Some false) (cached again);
  Alcotest.(check string) "same verdict" (Json.to_string first) (Json.to_string again);
  check_counts deps "one miss" ~hits:0 ~raw_hits:0 ~misses:3;
  Alcotest.(check (option bool)) "and re-cache" (Some true) (cached (analyze deps a));
  check_counts deps "then a raw hit" ~hits:1 ~raw_hits:1 ~misses:3

let test_analyze_raw_path_guarded () =
  let deps = cache_deps 8 in
  let text = read_data "motivating.soc" in
  let status r = Option.value ~default:"?" (Json.str_member "status" r) in
  let unvalidated = text ^ "process Pz impl only latency 1 area 0.01\n" in
  List.iter
    (fun (what, bad) ->
      for _ = 1 to 2 do
        Alcotest.(check string) what "invalid" (status (analyze deps bad))
      done)
    [ ("unparsable", "process only p latency 3\n"); ("non-validating", unvalidated) ];
  check_counts deps "rejected designs touch no counter" ~hits:0 ~raw_hits:0 ~misses:0;
  ignore (analyze deps text);
  ignore (call deps "session-open" [ ("design", Json.Str text); ("session", Json.Str "s") ]);
  let r = analyze ~session:"s" deps text in
  Alcotest.(check (option string)) "session reply" (Some "s") (Json.str_member "session" r);
  Alcotest.(check (option bool)) "not a cache reply" None (Json.bool_member "cached" r);
  check_counts deps "sessions bypass the cache" ~hits:0 ~raw_hits:0 ~misses:1;
  Alcotest.(check string) "unknown session is invalid" "invalid"
    (status (analyze ~session:"nope" deps text));
  check_counts deps "still untouched" ~hits:0 ~raw_hits:0 ~misses:1

(* ---- sessions ------------------------------------------------------------- *)

(* Deep copy through the canonical text — exactly what the daemon does when
   a client resubmits a design. *)
let copy_sys sys =
  match Soc_format.parse (Soc_format.print sys) with
  | Ok s -> s
  | Error e -> Alcotest.failf "canonical text did not reparse: %s" e

let session_agrees (o : Session.outcome) sys =
  let fresh = Perf.analyze sys in
  match (o.Session.certified.Perf.outcome, fresh) with
  | Ok a, Ok b -> Ratio.equal a.Perf.cycle_time b.Perf.cycle_time
  | Error _, Error _ -> true
  | _ -> false

let apply_mutation sys (which, kind, detail) =
  let procs = Array.of_list (System.processes sys) in
  let p = procs.(which mod Array.length procs) in
  match kind mod 3 with
  | 0 ->
    let n = Array.length (System.impls sys p) in
    System.select sys p (detail mod n)
  | 1 -> (
    match System.get_order sys p with
    | a :: b :: rest when detail mod 2 = 0 -> System.set_get_order sys p (b :: a :: rest)
    | _ -> ())
  | _ -> (
    match System.put_order sys p with
    | a :: b :: rest when detail mod 2 = 0 -> System.set_put_order sys p (b :: a :: rest)
    | _ -> ())

let clock = Unix.gettimeofday

let prop_session_equiv (sys, script) =
  let table = Session.create_table ~clock () in
  match Session.open_ table ~client:"t" ~name:"s" (copy_sys sys) with
  | Error e -> QCheck2.Test.fail_reportf "open failed: %s" e
  | Ok first ->
    first.Session.path = Session.Fresh
    && session_agrees first sys
    && List.for_all
         (fun mutation ->
           apply_mutation sys mutation;
           match Session.reanalyze table ~client:"t" ~name:"s" (copy_sys sys) with
           | Error e -> QCheck2.Test.fail_reportf "reanalyze failed: %s" e
           | Ok o ->
             (* Selection and order edits keep the held structure: the warm
                path must serve them, and agree with a fresh analysis. *)
             o.Session.path = Session.Warm && session_agrees o sys)
         script

let mutations_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (triple (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range 0 1_000_000)))

let test_session_equiv =
  Helpers.qtest ~count:60 "session re-analysis == fresh analysis (warm path)"
    QCheck2.Gen.(pair Helpers.feedback_system_gen mutations_gen)
    prop_session_equiv

(* A different structure must take the rebuild path — and still agree. *)
let prop_session_rebuild (sys_a, sys_b) =
  QCheck2.assume
    (Soc_format.print sys_a <> Soc_format.print sys_b);
  let table = Session.create_table ~clock () in
  match Session.open_ table ~client:"t" ~name:"s" (copy_sys sys_a) with
  | Error e -> QCheck2.Test.fail_reportf "open failed: %s" e
  | Ok _ -> (
    match Session.reanalyze table ~client:"t" ~name:"s" (copy_sys sys_b) with
    | Error e -> QCheck2.Test.fail_reportf "reanalyze failed: %s" e
    | Ok o ->
      (* Same shape (a pure selection/order diff) warms; anything else must
         rebuild. Either way the verdict matches a fresh analysis. *)
      session_agrees o sys_b)

let test_session_rebuild =
  Helpers.qtest ~count:40 "session re-analysis == fresh analysis (any path)"
    QCheck2.Gen.(pair Helpers.feedback_system_gen Helpers.dag_system_gen)
    prop_session_rebuild

let test_session_cap_and_close () =
  let table = Session.create_table ~max_per_client:2 ~clock () in
  let sys () = copy_sys (Ermes_slm.Motivating.system ()) in
  (match Session.open_ table ~client:"c" ~name:"a" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "open a: %s" e);
  (match Session.open_ table ~client:"c" ~name:"b" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "open b: %s" e);
  (match Session.open_ table ~client:"c" ~name:"c" (sys ()) with
  | Error e -> Alcotest.(check bool) "cap message" true (contains e "cap")
  | Ok _ -> Alcotest.fail "third session admitted past the cap");
  (* Re-opening an existing name replaces, never counts against the cap. *)
  (match Session.open_ table ~client:"c" ~name:"a" (sys ()) with
  | Ok o -> Alcotest.(check bool) "replacement is fresh" true (o.Session.path = Session.Fresh)
  | Error e -> Alcotest.failf "reopen a: %s" e);
  (* Another client has its own budget. *)
  (match Session.open_ table ~client:"d" ~name:"a" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "other client: %s" e);
  Alcotest.(check bool) "close existing" true (Session.close table ~client:"c" ~name:"a");
  Alcotest.(check bool) "close missing" false (Session.close table ~client:"c" ~name:"a");
  Alcotest.(check int) "close_client drops the rest" 1
    (Session.close_client table ~client:"c");
  Alcotest.(check int) "one session left" 1 (Session.count table)

let test_session_reap_idle () =
  let now = ref 0. in
  let table = Session.create_table ~ttl_s:10. ~clock:(fun () -> !now) () in
  let sys () = copy_sys (Ermes_slm.Motivating.system ()) in
  ignore (Session.open_ table ~client:"c" ~name:"old" (sys ()));
  now := 100.;
  ignore (Session.open_ table ~client:"c" ~name:"new" (sys ()));
  Alcotest.(check int) "reaps only the stale one" 1
    (Session.reap_idle table ~now:!now);
  Alcotest.(check int) "survivor" 1 (Session.count table);
  (match Session.reanalyze table ~client:"c" ~name:"new" (sys ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "survivor unusable: %s" e);
  match Session.reanalyze table ~client:"c" ~name:"old" (sys ()) with
  | Error e -> Alcotest.(check bool) "names the session" true (contains e "old")
  | Ok _ -> Alcotest.fail "reaped session still served"

(* ---- deadline classification ---------------------------------------------- *)

(* An expired token surfaces as Timed_out from Supervise.attempt — the
   taxonomy the daemon's replies are built on — and is never retried. *)
let test_deadline_classified_timed_out () =
  let now = ref 0. in
  let token = Cancel.make ~deadline_s:5. ~clock:(fun () -> !now) () in
  let attempts = ref 0 in
  let outcome =
    Supervise.attempt
      ~policy:{ Supervise.default_policy with Supervise.clock = (fun () -> !now) }
      (fun () ->
        incr attempts;
        now := 10.;
        Cancel.check token;
        "unreachable")
  in
  (match outcome with
  | Supervise.Timed_out { attempts = a; _ } -> Alcotest.(check int) "attempts" 1 a
  | _ -> Alcotest.fail "expired deadline not classified Timed_out");
  Alcotest.(check int) "no retry" 1 !attempts

let test_explicit_cancel_classified_timed_out () =
  let token = Cancel.make () in
  Cancel.cancel ~reason:"client disconnected" token;
  match Supervise.attempt (fun () -> Cancel.check token) with
  | Supervise.Timed_out _ -> ()
  | _ -> Alcotest.fail "explicit cancel not classified Timed_out"

(* ---- frame-read deadline --------------------------------------------------- *)

(* [Proto.pending] is what the server's slow-loris deadline keys off: true
   exactly while a frame is partially buffered on a healthy decoder. *)
let test_proto_pending () =
  let d = Proto.decoder () in
  let feed s = Proto.feed d (Bytes.of_string s) (String.length s) in
  Alcotest.(check bool) "fresh" false (Proto.pending d);
  feed "5";
  Alcotest.(check bool) "partial length prefix" true (Proto.pending d);
  feed "\nab";
  (match Proto.next d with Ok None -> () | _ -> Alcotest.fail "frame early");
  Alcotest.(check bool) "partial payload" true (Proto.pending d);
  feed "cde";
  (match Proto.next d with
  | Ok (Some "abcde") -> ()
  | _ -> Alcotest.fail "frame not decoded");
  Alcotest.(check bool) "drained" false (Proto.pending d);
  feed "bogus!\n";
  (match Proto.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad prefix not poisoned");
  Alcotest.(check bool) "poisoned is not pending" false (Proto.pending d)

(* ---- batch verb ------------------------------------------------------------- *)

(* Every shipped design, plus the motivating example with an isolated
   process (a design that parses but does not validate), under each action:
   the daemon's [batch] verb reports the (status, category, detail) that
   [ermes batch] reports for the same design as a file. *)
let test_batch_verb_matches_cli () =
  let data = "../data" in
  let files =
    Sys.readdir data |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".soc")
    |> List.sort compare
    |> List.map (Filename.concat data)
  in
  Alcotest.(check bool) "shipped designs found" true (List.length files >= 5);
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let disconnected = Filename.temp_file "ermes_disconnected" ".soc" in
  Out_channel.with_open_bin disconnected (fun oc ->
      output_string oc
        (read (Filename.concat data "motivating.soc")
        ^ "process Pz impl only latency 1 area 0.01\n"));
  let rounds = 64 in
  let deps =
    {
      Handler.cache = Cache.create ~capacity:8;
      sessions = Session.create_table ~clock:Unix.gettimeofday ();
      rounds;
    }
  in
  Fun.protect ~finally:(fun () -> Sys.remove disconnected) @@ fun () ->
  List.iter
    (fun file ->
      List.iter
        (fun action ->
          let name = Batch.action_name action in
          let where = Printf.sprintf "%s %s" (Filename.basename file) name in
          let cli =
            let report = Batch.run ~jobs:1 ~rounds [ Batch.job_of_file ~action file ] in
            match report.Batch.results with
            | [ { Batch.status = st; _ } ] ->
              let category =
                match st with Batch.Job_failed { category; _ } -> Some category | _ -> None
              in
              (Batch.status_name st, category, Batch.status_detail st)
            | _ -> Alcotest.fail "one job in, one result out"
          in
          let job = Json.Obj [ ("design", Json.Str (read file)); ("action", Json.Str name) ] in
          let body =
            Json.Obj
              [ ("id", Json.Int 1); ("verb", Json.Str "batch"); ("jobs", Json.Arr [ job ]) ]
          in
          let reply =
            Handler.execute deps ~cancel:(Cancel.make ()) ~attempts:(ref 0) ~client:"t"
              { Proto.id = 1; verb = "batch"; body }
          in
          let daemon =
            match Json.member "jobs" reply with
            | Some (Json.Arr [ item ]) ->
              ( Option.value ~default:"?" (Json.str_member "status" item),
                Json.str_member "category" item,
                Option.value ~default:"?" (Json.str_member "detail" item) )
            | _ -> Alcotest.failf "%s: no job item in %s" where (Json.to_string reply)
          in
          Alcotest.(check (triple string (option string) string)) where cli daemon)
        [ Batch.Analyze; Batch.Lint; Batch.Simulate ])
    (files @ [ disconnected ])

(* ---- the daemon end to end ------------------------------------------------ *)

(* A one-worker daemon embedded via [?stop] on a fresh socket for the
   duration of [f socket]. *)
let with_daemon ?(frame_deadline_s = 0.5) f =
  let dir = Filename.temp_file "ermes_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let stop = Atomic.make false in
  let cfg =
    { (Server.default_config ~socket) with Server.workers = 1; frame_deadline_s }
  in
  let dom = Domain.spawn (fun () -> Server.run ~stop cfg) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join dom : (unit, string) result);
      (try Sys.remove socket with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f socket)

let rec connect socket tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
    fd
  | exception Unix.Unix_error _ when tries > 0 ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Unix.sleepf 0.05;
    connect socket (tries - 1)

let send_raw fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let send fd payload = send_raw fd (Proto.frame payload)

let buf = Bytes.create 4096

let recv fd dec =
  let rec go () =
    match Proto.next dec with
    | Ok (Some p) -> p
    | Error e -> Alcotest.failf "bad frame from daemon: %s" e
    | Ok None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "connection closed before a reply"
      | n ->
        Proto.feed dec buf n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let status payload =
  match Json.of_string payload with
  | Ok j -> Json.str_member "status" j
  | Error e -> Alcotest.failf "unparseable reply: %s" e

let ping = Json.to_string (Json.Obj [ ("id", Json.Int 1); ("verb", Json.Str "ping") ])

(* A slow-loris connection holding a half-frame open is answered
   bad-request and closed within the frame deadline — long before the idle
   reaper — while a well-behaved connection on the same daemon keeps being
   served. *)
let test_frame_deadline_end_to_end () =
  with_daemon @@ fun socket ->
  let loris = connect socket 100 in
  send_raw loris "64\n{\"half";
  let good = connect socket 5 in
  let gdec = Proto.decoder () in
  send good (Json.to_string (Proto.hello_request ~client:"t"));
  Alcotest.(check (option string)) "hello ok" (Some "ok") (status (recv good gdec));
  let ldec = Proto.decoder () in
  let reply = recv loris ldec in
  Alcotest.(check (option string)) "loris cut with bad-request" (Some "bad-request")
    (status reply);
  (match Json.of_string reply with
  | Ok j ->
    Alcotest.(check bool) "names the frame deadline" true
      (match Json.str_member "error" j with Some e -> contains e "frame" | None -> false)
  | Error e -> Alcotest.fail e);
  (let rec eof () =
     match Unix.read loris buf 0 (Bytes.length buf) with
     | 0 -> ()
     | _ -> eof ()
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> eof ()
     | exception Unix.Unix_error _ -> ()
   in
   eof ());
  send good ping;
  Alcotest.(check (option string)) "good client still served" (Some "ok")
    (status (recv good gdec));
  (try Unix.close loris with Unix.Unix_error _ -> ());
  try Unix.close good with Unix.Unix_error _ -> ()

(* A frame nested one level past [Json.max_depth], and a megabyte of ['['],
   are each answered bad-request on a connection the daemon keeps serving:
   it answers [ping] next. *)
let test_deep_frame_end_to_end () =
  with_daemon ~frame_deadline_s:10. @@ fun socket ->
  let fd = connect socket 100 in
  let dec = Proto.decoder () in
  send fd (Json.to_string (Proto.hello_request ~client:"t"));
  Alcotest.(check (option string)) "hello ok" (Some "ok") (status (recv fd dec));
  let over = Json.max_depth + 1 in
  List.iter
    (fun (what, payload) ->
      send fd payload;
      let reply = recv fd dec in
      Alcotest.(check (option string)) (what ^ " is bad-request") (Some "bad-request")
        (status reply);
      Alcotest.(check bool) (what ^ " reply names the nesting bound") true
        (contains reply "nesting");
      send fd ping;
      Alcotest.(check (option string)) ("ping after " ^ what) (Some "ok")
        (status (recv fd dec)))
    [
      ("max_depth + 1", String.make over '[' ^ String.make over ']');
      ("a megabyte of '['", String.make 1_000_000 '[');
    ];
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- registration ---------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          test_decoder_chunking;
          Alcotest.test_case "poisons on bad prefix" `Quick
            test_decoder_poisons_on_bad_prefix;
          Alcotest.test_case "rejects oversized frames" `Quick
            test_decoder_rejects_oversized;
          Alcotest.test_case "parse_request" `Quick test_parse_request;
          Alcotest.test_case "status → exit-code map" `Quick test_status_codes;
        ] );
      ( "admission",
        [
          test_admission_bounds;
          Alcotest.test_case "retry hint formula" `Quick test_retry_hint_formula;
          Alcotest.test_case "close semantics" `Quick test_admission_close;
          Alcotest.test_case "concurrent consumers" `Quick
            test_admission_concurrent;
        ] );
      ( "cache",
        [
          Alcotest.test_case "bounds and stats" `Quick test_cache_bounds_and_stats;
          Alcotest.test_case "LRU respects recency" `Quick test_cache_lru_recency;
          Alcotest.test_case "content-hash keys" `Quick
            test_cache_key_is_content_hash;
          Alcotest.test_case "raw aliases" `Quick test_cache_raw_alias;
          Alcotest.test_case "analyze: re-send and reformatted copy hit" `Quick
            test_analyze_raw_and_reformatted;
          Alcotest.test_case "analyze: raw bytes after eviction" `Quick
            test_analyze_raw_after_eviction;
          Alcotest.test_case "analyze: rejected and session requests bypass" `Quick
            test_analyze_raw_path_guarded;
        ] );
      ( "session",
        [
          test_session_equiv;
          test_session_rebuild;
          Alcotest.test_case "per-client cap, close, replace" `Quick
            test_session_cap_and_close;
          Alcotest.test_case "idle reap" `Quick test_session_reap_idle;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expiry classified Timed_out, no retry" `Quick
            test_deadline_classified_timed_out;
          Alcotest.test_case "explicit cancel classified Timed_out" `Quick
            test_explicit_cancel_classified_timed_out;
        ] );
      ( "frame deadline",
        [
          Alcotest.test_case "Proto.pending" `Quick test_proto_pending;
          Alcotest.test_case "slow-loris cut, good client served" `Quick
            test_frame_deadline_end_to_end;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "over-deep frame is bad-request, daemon serves on" `Quick
            test_deep_frame_end_to_end;
          Alcotest.test_case "batch verb classifies as ermes batch" `Quick
            test_batch_verb_matches_cli;
        ] );
    ]
