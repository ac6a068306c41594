(* The flat CSR core: the one Howard solver and its frozen net.

   Csr.solve is the only cycle-time solver, so its exact outputs are pinned
   by a golden test — verdict, exact ratio, witness place names, a digest of
   the integer potentials and both iteration counters — on the paper's
   designs, a synthetic SoC and seeded random nets. Any change to traversal
   order, tie-breaking or float rounding moves the pin, not only a change of
   ratio. The liveness ranks must match the pointer Liveness bit for bit, the
   freeze/thaw pair must round-trip through every accessor, and the
   iterative SCC must take a 10^5-vertex path graph in stride where the old
   recursive walk blew the OCaml stack. *)

module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio
module Liveness = Ermes_tmg.Liveness
module Csr = Ermes_tmg.Csr
module Generate = Ermes_synth.Generate
module To_tmg = Ermes_slm.To_tmg
module Verify = Ermes_verify.Verify

(* Like Helpers.build_tmg but without the make-it-live fixup: deadlocked
   markings stay deadlocked, so the Deadlock path is compared too. *)
let build_raw_tmg (delays, ring_tokens, chords) =
  let tmg = Tmg.create () in
  let ts = List.map (fun d -> Tmg.add_transition tmg ~delay:d ()) delays in
  let arr = Array.of_list ts in
  let n = Array.length arr in
  List.iteri
    (fun i tokens ->
      ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens ()))
    ring_tokens;
  List.iter
    (fun (s, d, tokens) -> ignore (Tmg.add_place tmg ~src:arr.(s) ~dst:arr.(d) ~tokens ()))
    chords;
  tmg

let raw_tmg_gen = QCheck2.Gen.map build_raw_tmg Helpers.random_tmg_gen

let fail fmt = Format.kasprintf (fun s -> Alcotest.failf "%s" s) fmt

(* ---- liveness ranks: same answers off the same arrays ------------------ *)

let same_dead (a : Liveness.dead_cycle) (b : Liveness.dead_cycle) =
  a.Liveness.dead_places = b.Liveness.dead_places
  && a.Liveness.dead_transitions = b.Liveness.dead_transitions

let prop_live_ranks_equal tmg =
  let g = Csr.of_tmg tmg in
  (match (Liveness.live_ranks tmg, Csr.live_ranks g) with
  | Ok a, Ok b -> if a <> b then fail "rank vectors differ"
  | Error a, Error b -> if not (same_dead a b) then fail "dead cycles differ"
  | _ -> fail "liveness verdicts differ");
  true

(* ---- certificates: both checker entry points -------------------------- *)

(* [check] on the pointer net and [check_csr] on a freeze of it are the two
   ways in to the one checker; both must accept the solver's certificate. *)
let prop_certificates_cross_accepted tmg =
  let g = Csr.of_tmg tmg in
  let cert = Verify.of_howard_csr g (Csr.cycle_time tmg) in
  (match Verify.check tmg cert with
  | Ok () -> ()
  | Error v -> fail "rejected by check: %a" Verify.pp_violation v);
  (match Verify.check_csr g cert with
  | Ok () -> ()
  | Error v -> fail "rejected by check_csr: %a" Verify.pp_violation v);
  true

(* ---- freeze / thaw round-trip ------------------------------------------- *)

let prop_round_trip tmg =
  let g = Csr.of_tmg tmg in
  let tmg' = Csr.to_tmg g in
  let n = Tmg.transition_count tmg and m = Tmg.place_count tmg in
  if Tmg.transition_count tmg' <> n then fail "transition count differs";
  if Tmg.place_count tmg' <> m then fail "place count differs";
  for v = 0 to n - 1 do
    if Tmg.delay tmg' v <> Tmg.delay tmg v then fail "delay differs at %d" v;
    if Tmg.transition_name tmg' v <> Tmg.transition_name tmg v then
      fail "transition name differs at %d" v
  done;
  for p = 0 to m - 1 do
    if Tmg.place_src tmg' p <> Tmg.place_src tmg p then fail "src differs at %d" p;
    if Tmg.place_dst tmg' p <> Tmg.place_dst tmg p then fail "dst differs at %d" p;
    if Tmg.tokens tmg' p <> Tmg.tokens tmg p then fail "tokens differ at %d" p;
    if Tmg.place_name tmg' p <> Tmg.place_name tmg p then
      fail "place name differs at %d" p
  done;
  (* Re-freezing the thawed net reproduces the arrays exactly. *)
  if Csr.of_tmg tmg' <> g then fail "re-freeze differs";
  true

(* ---- deep graphs: the iterative SCC and rank walks ---------------------- *)

(* A 10^5-transition path graph. The old recursive Tarjan overflowed the
   OCaml stack around depth ~10^4; the CSR core must return 10^5 singleton
   components and an Acyclic verdict. *)
let test_path_stress () =
  let n = 100_000 in
  let tmg = Tmg.create () in
  let ts = Array.init n (fun _ -> Tmg.add_transition tmg ~delay:1 ()) in
  for i = 0 to n - 2 do
    ignore (Tmg.add_place tmg ~src:ts.(i) ~dst:ts.(i + 1) ~tokens:1 ())
  done;
  let g = Csr.of_tmg tmg in
  let { Csr.comp_count; _ } = Csr.strongly_connected g in
  Alcotest.(check int) "singleton components" n comp_count;
  (match Csr.cycle_time tmg with
  | Error Csr.No_cycle -> ()
  | _ -> Alcotest.fail "expected No_cycle on a path graph");
  match Csr.topo_ranks g with
  | Error _ -> Alcotest.fail "path graph is acyclic"
  | Ok ranks ->
    for p = 0 to g.Csr.m - 1 do
      if ranks.(g.Csr.src.(p)) >= ranks.(g.Csr.dst.(p)) then
        Alcotest.fail "topological ranks out of order"
    done

(* A 10^5-transition single ring: one SCC, and the policy-evaluation walk
   (also iterative) crosses the whole cycle in one chain. *)
let test_ring_stress () =
  let n = 100_000 in
  let tmg = Tmg.create () in
  let ts = Array.init n (fun _ -> Tmg.add_transition tmg ~delay:1 ()) in
  for i = 0 to n - 1 do
    ignore (Tmg.add_place tmg ~src:ts.(i) ~dst:ts.((i + 1) mod n) ~tokens:1 ())
  done;
  let g = Csr.of_tmg tmg in
  let { Csr.comp_count; _ } = Csr.strongly_connected g in
  Alcotest.(check int) "one component" 1 comp_count;
  match Csr.cycle_time tmg with
  | Ok r -> Helpers.check_ratio "ring cycle time" (Ratio.make 1 1) r.Csr.cycle_time
  | Error _ -> Alcotest.fail "ring is live and cyclic"

(* ---- golden pin: Csr.cycle_time's exact outputs ------------------------- *)

(* One line per net: the verdict, and for a bounded net the exact ratio, the
   witness place names, an MD5 digest of the potentials and both iteration
   counters. Any change to traversal order, tie-breaking or float rounding in
   the solver shows up here, not only a change of ratio. The lines were
   recorded while an independent pointer-based Howard still existed and
   produced them bit for bit; re-record them only for a deliberate change of
   the solver's choices, never for a change of ratio or verdict. *)
let golden_line tmg =
  match Csr.cycle_time tmg with
  | Ok r ->
    let names = List.map (Tmg.place_name tmg) r.Csr.critical_places in
    let pot =
      Array.to_list r.Csr.potentials |> List.map string_of_int |> String.concat ","
    in
    Printf.sprintf "%s [%s] pot=%s policy=%d cancel=%d"
      (Ratio.to_string r.Csr.cycle_time)
      (String.concat " " names)
      (Digest.to_hex (Digest.string pot))
      r.Csr.howard_iterations r.Csr.cancel_iterations
  | Error (Csr.Deadlock d) ->
    Printf.sprintf "deadlock [%s]"
      (String.concat " " (List.map (Tmg.place_name tmg) d.Liveness.dead_places))
  | Error Csr.No_cycle -> "no cycle"

(* The shape of Helpers.random_tmg_gen, drawn from the project's own
   splitmix64 so the nets do not depend on the stdlib's Random. *)
let seeded_spec seed =
  let g = Ermes_synth.Prng.create ~seed in
  let r lo hi = Ermes_synth.Prng.int_range g ~lo ~hi in
  let n = r 2 7 in
  let extra = r 0 8 in
  let delays = List.init n (fun _ -> r 0 9) in
  let ring_tokens = List.init n (fun _ -> r 0 2) in
  let chords =
    List.init extra (fun _ ->
        let s = r 0 (n - 1) in
        let d = r 0 (n - 1) in
        let t = r 0 2 in
        (s, d, t))
  in
  (delays, ring_tokens, chords)

let golden_paper =
  [
    "12 [comp_P2 put_P2_b put_P2_d put_P2_f get_P2_a] pot=97cb2c95359029134fd669454336d761 policy=4 cancel=0";
    "117630 [comp_me2 put_me2_mv2 get_me_merge_mv3 comp_me_merge put_me_merge_mv_all comp_mc_pred put_mc_pred_pred comp_residual put_residual_res0 comp_dct0 put_dct0_coef0 comp_quant0 put_quant0_lev0 put_quant0_rq0 get_dequant_rq1 get_dequant_rq2 comp_dequant put_dequant_deq comp_idct put_idct_rec_res comp_recon put_recon_rec put_frame_store_ref_me0 put_frame_store_ref_me1 put_frame_store_ref_me2 get_me2_mb_me2] pot=ba0c62ac557afe2e3f5a69014d64e716 policy=11 cancel=0";
  ]

let golden_synth =
  [
    "14673 [get_p0022_c00293 comp_p0022 put_p0022_c00044 get_p0022_c00345 get_p0022_c00043] pot=1395b3a3c91408dc8944e4f8e370a9fc policy=11 cancel=0";
  ]

let golden_live =
  [
    "21/10 [p0 p1 p2 p3 p4 p5] pot=976224f33836937196f21bb4cb78f861 policy=1 cancel=0";
    "25/4 [p0 p7 p6] pot=e48c12793a195dc198557c5c565eecca policy=2 cancel=0";
    "22/5 [p0 p1 p2 p3 p4 p5 p6] pot=4cee7d599fe33233dc9e3984f567d320 policy=1 cancel=0";
    "6 [p0 p1 p2 p3] pot=9c4cd0bb11ff4b3878041cfd56dae1e5 policy=1 cancel=0";
    "12 [p0 p5] pot=b5da374c695b4f371d3a640e54aaffab policy=2 cancel=0";
    "1 [p0 p1 p2 p3] pot=8eae73de98950eb85342ec76be78fee8 policy=1 cancel=0";
    "15/2 [p3 p10] pot=11616df4a48040a4975a35a297c870c0 policy=2 cancel=0";
    "23/2 [p0 p13 p5 p6] pot=450b916e25844f2cd51a953002c7ec69 policy=3 cancel=0";
    "15 [p0 p1 p2] pot=fea67879671d440758987a3fab37a456 policy=1 cancel=0";
    "15 [p5 p2 p3] pot=60c9eb2c44620eb89f55aee657d81cba policy=2 cancel=0";
    "39/7 [p0 p1 p2 p3 p4 p5 p8] pot=dafff59d8964332bc3c78b281dc132fc policy=2 cancel=0";
    "9 [p4] pot=e355e4dab36951a7a989d4d54d02e01c policy=2 cancel=0";
    "10 [p3 p10] pot=c3041da0f3e8585afc9fc929819b72ef policy=2 cancel=0";
    "38/5 [p0 p1 p2 p3 p4] pot=5b120868ab08d573b684ee772dd1f5a4 policy=1 cancel=0";
    "11 [p6 p4 p2] pot=d16b02a1353cc92fca36765559cdd520 policy=2 cancel=0";
    "9 [p0 p13 p5 p6] pot=8283bdb8b4d2b577bdd64287ff27592f policy=3 cancel=0";
    "11/3 [p0 p1] pot=ee2f6eeac5fb29e0f07b5148df8686fc policy=1 cancel=0";
    "9/4 [p0 p1 p2 p3] pot=327336f1f0c84bcda37ebb1eee6a79de policy=1 cancel=0";
    "4 [p0 p1 p7 p4] pot=13016911bec509fb6391602fa1f262d0 policy=3 cancel=0";
    "34 [p0 p1 p2 p3 p4] pot=784c8d6f4732b9875640ffde66a40453 policy=1 cancel=0";
  ]

let golden_raw =
  [
    "21/10 [p0 p1 p2 p3 p4 p5] pot=976224f33836937196f21bb4cb78f861 policy=1 cancel=0";
    "25/4 [p0 p7 p6] pot=e48c12793a195dc198557c5c565eecca policy=2 cancel=0";
    "22/5 [p0 p1 p2 p3 p4 p5 p6] pot=4cee7d599fe33233dc9e3984f567d320 policy=1 cancel=0";
    "6 [p0 p1 p2 p3] pot=9c4cd0bb11ff4b3878041cfd56dae1e5 policy=1 cancel=0";
    "deadlock [p0 p5]";
    "deadlock [p4]";
    "15/2 [p3 p10] pot=11616df4a48040a4975a35a297c870c0 policy=2 cancel=0";
    "23/2 [p0 p13 p5 p6] pot=450b916e25844f2cd51a953002c7ec69 policy=3 cancel=0";
    "15 [p0 p1 p2] pot=fea67879671d440758987a3fab37a456 policy=1 cancel=0";
    "deadlock [p4]";
    "39/7 [p0 p1 p2 p3 p4 p5 p8] pot=dafff59d8964332bc3c78b281dc132fc policy=2 cancel=0";
    "deadlock [p4]";
    "deadlock [p7]";
    "38/5 [p0 p1 p2 p3 p4] pot=5b120868ab08d573b684ee772dd1f5a4 policy=1 cancel=0";
    "11 [p6 p4 p2] pot=d16b02a1353cc92fca36765559cdd520 policy=2 cancel=0";
    "9 [p0 p13 p5 p6] pot=8283bdb8b4d2b577bdd64287ff27592f policy=3 cancel=0";
    "11/3 [p0 p1] pot=ee2f6eeac5fb29e0f07b5148df8686fc policy=1 cancel=0";
    "deadlock [p4]";
    "4 [p0 p1 p7 p4] pot=13016911bec509fb6391602fa1f262d0 policy=3 cancel=0";
    "deadlock [p0 p1 p2 p3 p4]";
  ]

let check_golden label expected tmgs =
  let actual = List.map golden_line tmgs in
  if actual <> expected then
    fail "%s: golden pin moved; now:@.%a" label
      Format.(pp_print_list ~pp_sep:pp_print_newline (fun ppf s -> fprintf ppf "%S;" s))
      actual

let test_golden_paper () =
  check_golden "paper designs" golden_paper
    [
      (To_tmg.build (Ermes_slm.Motivating.system ())).To_tmg.tmg;
      (To_tmg.build (Ermes_mpeg2.Soc.build ())).To_tmg.tmg;
    ]

let test_golden_synth () =
  check_golden "synth-200" golden_synth
    [ (To_tmg.build (Generate.scaled ~processes:200 ~channels:300 ())).To_tmg.tmg ]

let test_golden_live () =
  check_golden "live nets" golden_live
    (List.init 20 (fun i -> Helpers.build_tmg (seeded_spec (i + 1))))

let test_golden_raw () =
  check_golden "raw nets" golden_raw
    (List.init 20 (fun i -> build_raw_tmg (seeded_spec (i + 1))))

let () =
  Alcotest.run "csr"
    [
      ( "howard",
        [
          Alcotest.test_case "golden (paper designs)" `Quick test_golden_paper;
          Alcotest.test_case "golden (synth-200)" `Quick test_golden_synth;
          Alcotest.test_case "golden (live nets)" `Quick test_golden_live;
          Alcotest.test_case "golden (raw nets)" `Quick test_golden_raw;
        ] );
      ( "cross-check",
        [
          Helpers.qtest ~count:300 "live ranks agree (raw nets)" raw_tmg_gen
            prop_live_ranks_equal;
        ] );
      ( "certificates",
        [
          Helpers.qtest ~count:200 "accepted by both checkers (live nets)"
            Helpers.live_tmg_arbitrary prop_certificates_cross_accepted;
          Helpers.qtest ~count:200 "accepted by both checkers (raw nets)"
            raw_tmg_gen prop_certificates_cross_accepted;
        ] );
      ( "round-trip",
        [
          Helpers.qtest ~count:300 "freeze/thaw identity (raw nets)" raw_tmg_gen
            prop_round_trip;
        ] );
      ( "stress",
        [
          Alcotest.test_case "10^5-node path graph" `Quick test_path_stress;
          Alcotest.test_case "10^5-node ring" `Quick test_ring_stress;
        ] );
    ]
