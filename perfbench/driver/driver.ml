(* In-process half of the ERMES benchmark (perfbench/run.py is the entry
   point). It generates the seeded inputs handed to the [ermes] binary and
   the daemon, computes their reference verdicts, and runs the two workload
   parts that go through the public library functions: the MPEG-2 design
   space exploration and the traced replay of [ermes analyze --certify].

   Every line meant for run.py starts with "@ " and is a list of key=value
   pairs; anything else is commentary. Timed runs keep [Obs] disabled;
   traced passes enable it, wrap each layer call in a span named after the
   layer, and write the spans as Chrome trace JSON for run.py to attribute. *)

module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module To_tmg = Ermes_slm.To_tmg
module Motivating = Ermes_slm.Motivating
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Ratio = Ermes_tmg.Ratio
module Verify = Ermes_verify.Verify
module Perf = Ermes_core.Perf
module Order = Ermes_core.Order
module Explore = Ermes_core.Explore
module Frontier = Ermes_core.Frontier
module Soc = Ermes_mpeg2.Soc
module Generate = Ermes_synth.Generate
module Branch_bound = Ermes_ilp.Branch_bound
module Obs = Ermes_obs.Obs

let emit fields =
  print_string "@";
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) fields;
  print_newline ()

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("driver: " ^ msg); exit 1) fmt

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = Printf.sprintf "%.6f" (1000. *. s)

(* Peak resident set of this process, MiB, from /proc. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Tracing: a fresh sink per pass, wall-clock spans. *)
let start_trace () =
  Obs.set_clock now;
  Obs.enable ()

let stop_trace file =
  Obs.write_chrome_trace file;
  Obs.disable ()

let span = Obs.span

let load path =
  match Soc_format.parse_file path with
  | Error e -> fail "%s: %s" path e
  | Ok sys -> sys

let write_soc path sys = Soc_format.write_file path sys

(* The verdict whose certificate the independent checker accepts on a fresh
   freeze — the reference every analysis in the benchmark is held to. *)
let checked_verdict sys =
  let tmg = (To_tmg.build sys).To_tmg.tmg in
  let cert = Verify.of_howard_csr (Csr.of_tmg tmg) (Csr.cycle_time tmg) in
  match (Verify.check_csr (Csr.of_tmg tmg) cert, cert) with
  | Ok (), Verify.Bounded b -> Ratio.to_string b.ratio
  | Ok (), _ -> fail "reference design is not live with a bounded cycle time"
  | Error v, _ -> fail "reference certificate rejected: %s" (Format.asprintf "%a" Verify.pp_violation v)

(* ------------------------------------------------------------ inputs *)

let cmd_motivating out =
  let sys = Motivating.system () in
  write_soc out sys;
  emit [ ("verdict", checked_verdict sys) ]

let cmd_mesh ~seed ~rows ~cols out = write_soc out (Generate.mesh_system ~seed ~rows ~cols ())

let cmd_verdict file = emit [ ("verdict", checked_verdict (load file)) ]

(* Designs for the serve-mix traffic: a pool re-sent for cache hits, bases
   the client renames into never-seen designs for misses, and per-session
   walks of small selection or order edits for the warm incremental path.
   Every file comes with its checked verdict. Sizes follow a fixed ladder
   over each pool (100-500 processes for random systems, 10x10-20x20 for
   meshes), so the seed changes the designs but not the spread of work. *)

let rng_int st n = Random.State.int st n

(* Position of design [i] of [n] on the size ladder, in [0, 1]. *)
let ladder i n = if n = 1 then 0.5 else float_of_int i /. float_of_int (n - 1)

let random_design st ~frac =
  let processes = 100 + int_of_float (400. *. frac) in
  Generate.scaled ~seed:(1 + rng_int st 1_000_000) ~processes
    ~channels:(processes * 3 / 2) ()

let mesh_design st ~frac =
  let side = 10 + int_of_float (10. *. frac) in
  Generate.mesh_system ~seed:(1 + rng_int st 1_000_000) ~rows:side ~cols:side ()

let live sys = match Perf.analyze sys with Ok _ -> true | Error _ -> false

(* One small edit that keeps the design live: switch one process's
   implementation, or swap two adjacent statements of one get/put order. *)
let rec edit st sys ~tries =
  if tries = 0 then fail "no live edit found";
  let n = System.process_count sys in
  let p = rng_int st n in
  let k = Array.length (System.impls sys p) in
  if k > 1 && rng_int st 3 > 0 then begin
    let cur = System.selected sys p in
    System.select sys p ((cur + 1 + rng_int st (k - 1)) mod k)
  end
  else begin
    let gets = rng_int st 2 = 0 in
    let order = if gets then System.get_order sys p else System.put_order sys p in
    let len = List.length order in
    if len < 2 then edit st sys ~tries:(tries - 1)
    else begin
      let i = rng_int st (len - 1) in
      let a = Array.of_list order in
      let t = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- t;
      let set = if gets then System.set_get_order else System.set_put_order in
      set sys p (Array.to_list a);
      if not (live sys) then begin
        set sys p order;
        edit st sys ~tries:(tries - 1)
      end
    end
  end

let cmd_serve_designs ~seed ~dir ~hits ~misses ~sessions ~walk =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let manifest = Buffer.create 4096 in
  let add cls idx step sys =
    let file = Printf.sprintf "%s-%02d-%02d.soc" cls idx step in
    write_soc (Filename.concat dir file) sys;
    Printf.bprintf manifest "%s %d %d %s %s\n" cls idx step file (checked_verdict sys)
  in
  (* Every third design of a pool is a mesh. *)
  let pick i n =
    if i mod 3 = 2 then mesh_design st ~frac:(ladder i n) else random_design st ~frac:(ladder i n)
  in
  for i = 0 to hits - 1 do add "hit" i 0 (pick i hits) done;
  for i = 0 to misses - 1 do add "miss" i 0 (pick i misses) done;
  for i = 0 to sessions - 1 do
    (* Session walks start from random designs, whose processes carry
       several implementations, so both edit kinds occur. *)
    let sys = random_design st ~frac:(ladder i sessions) in
    add "session" i 0 sys;
    for step = 1 to walk - 1 do
      edit st sys ~tries:1000;
      add "session" i step sys
    done
  done;
  Out_channel.with_open_text (Filename.concat dir "manifest.txt") (fun oc ->
      Out_channel.output_string oc (Buffer.contents manifest))

(* ------------------------------------------------- analyze-mesh replay *)

(* The call sequence of [ermes analyze --certify FILE] (bin/ermes.ml: load,
   Perf.analyze, print, certify_system), each layer call in its own span. *)
let analyze_replay path =
  span "analyze" @@ fun () ->
  let sys = span "soc_format.parse" (fun () -> load path) in
  (match span "system.validate" (fun () -> System.validate sys) with
  | Ok () -> ()
  | Error e -> fail "invalid system: %s" e);
  let solve tmg =
    let s = span "csr.make_solver" (fun () -> Csr.make_solver tmg) in
    Csr.solve s
  in
  (* Perf.analyze *)
  let mapping = span "to_tmg.build" (fun () -> To_tmg.build sys) in
  let r = solve mapping.To_tmg.tmg in
  let a =
    match span "perf.of_howard" (fun () -> Perf.of_howard mapping r) with
    | Ok a -> a
    | Error _ -> fail "%s: analysis failed" path
  in
  (* The CLI prints this report; rendering it is the work. *)
  ignore
    (span "perf.pp_analysis" (fun () ->
         Format.asprintf "%a@.critical cycle: %s@." (Perf.pp_analysis sys) a
           (String.concat " -> " a.Perf.critical_cycle)));
  (* certify_system *)
  let tmg = (span "to_tmg.build" (fun () -> To_tmg.build sys)).To_tmg.tmg in
  let frozen = span "csr.of_tmg" (fun () -> Csr.of_tmg tmg) in
  let r = solve tmg in
  let cert = span "verify.of_howard_csr" (fun () -> Verify.of_howard_csr frozen r) in
  let fresh = span "csr.of_tmg" (fun () -> Csr.of_tmg tmg) in
  let checked = span "verify.check_csr" (fun () -> Verify.check_csr fresh cert) in
  let certified =
    match (checked, cert) with
    | Ok (), Verify.Bounded b -> Some (Ratio.to_string b.ratio)
    | _ -> None
  in
  (Ratio.to_string a.Perf.cycle_time, certified, Tmg.transition_count tmg, Tmg.place_count tmg)

let cmd_analyze_passes ~file ~prefix =
  (* Pass 0 untraced (the overhead baseline), passes 1 and 2 traced. *)
  for pass = 0 to 2 do
    Gc.compact ();
    let traced = pass > 0 in
    if traced then start_trace ();
    let (ct, certified, transitions, places), t = timed (fun () -> analyze_replay file) in
    if traced then stop_trace (Printf.sprintf "%s.%d.json" prefix pass);
    emit
      [
        ("pass", string_of_int pass);
        ("traced", string_of_bool traced);
        ("op_ms", ms t);
        ("cycle_time", ct);
        ("certified", Option.value ~default:"rejected" certified);
        ("transitions", string_of_int transitions);
        ("places", string_of_int places);
      ]
  done

(* ------------------------------------------------------------ dse-mpeg2 *)

(* Soc.build + Frontier.system_pareto + M2 selection, as bench/main.ml's
   fig6-timing section sets it up: the paper's M2 sits at CT ratio
   3597/1906 above M1; the target is 2000/3597 of M2's cycle time. *)
let dse_setup () =
  let sys = Soc.build () in
  let frontier = Frontier.system_pareto sys in
  let m2 = Frontier.at_cycle_time_ratio frontier (3597. /. 1906.) in
  Frontier.select sys m2;
  Order.conservative sys;
  let tct = int_of_float (Ratio.to_float m2.Frontier.cycle_time *. 2000. /. 3597.) in
  (sys, tct)

(* Explore.run's own default, passed explicitly so the node count below can
   tell the budget-exhausted Converged step apart. *)
let max_iterations = 16

let dse_op ?checkpoint ~tct base =
  let sys = System.copy base in
  Gc.compact ();
  let trace, t =
    timed (fun () -> span "dse" (fun () -> Explore.run ~max_iterations ?checkpoint ~tct sys))
  in
  let ct = Explore.final_cycle_time trace and area = Explore.final_area trace in
  (* Held to answers Explore did not choose: the target, a fresh analysis
     of the returned system, and its summed area. *)
  let ok =
    trace.Explore.met
    && Ratio.(ct <= of_int tct)
    && (match Perf.analyze sys with Ok a -> Ratio.equal a.Perf.cycle_time ct | Error _ -> false)
    && Float.abs (System.total_area sys -. area) <= 1e-9 *. Float.max 1. area
  in
  (t, ok, ct, area)

let dse_fields (t, ok, ct, area) =
  [
    ("op_ms", ms t);
    ("ok", string_of_bool ok);
    ("cycle_time", Ratio.to_string ct);
    ("cycle_time_float", Printf.sprintf "%.6f" (Ratio.to_float ct));
    ("area_mm2", Printf.sprintf "%.9f" area);
  ]

let cmd_dse ~seconds ~setup_reps =
  let setups =
    List.init setup_reps (fun _ ->
        Gc.compact ();
        timed dse_setup)
  in
  List.iter (fun (_, t) -> emit [ ("setup_s", Printf.sprintf "%.6f" t) ]) setups;
  let base, tct = fst (List.hd setups) in
  emit [ ("tct", string_of_int tct) ];
  let t0 = now () in
  (* At least two explorations; then another only if it should end within
     the window. *)
  let rec loop n =
    let ((t, _, _, _) as r) = dse_op ~tct base in
    emit (dse_fields r);
    if n < 2 || now () -. t0 +. t <= seconds then loop (n + 1)
  in
  loop 1;
  emit [ ("peak_rss_mb", Printf.sprintf "%.3f" (peak_rss_mb ())) ]

let cmd_dse_passes ~prefix =
  let base, tct = dse_setup () in
  emit [ ("tct", string_of_int tct) ];
  for pass = 0 to 2 do
    let traced = pass > 0 in
    let nodes = ref 0 in
    (* Branch_bound.node_count covers the most recent solve: read it at
       every step that follows a selection solve. The Initial step precedes
       any solve, and the Converged step pushed after the iteration budget
       runs out follows none. A step whose ILP fell back to a second solve
       counts only that second one. *)
    let checkpoint (s : Explore.snapshot) =
      match s.snap_step.action with
      | Explore.Initial -> ()
      | Explore.Converged when s.snap_step.iteration > max_iterations -> ()
      | Explore.Timing_optimization | Explore.Area_recovery | Explore.Converged ->
        nodes := !nodes + Branch_bound.node_count ()
    in
    if traced then start_trace ();
    let r = dse_op ~checkpoint ~tct base in
    if traced then stop_trace (Printf.sprintf "%s.%d.json" prefix pass);
    emit
      ([ ("pass", string_of_int pass); ("traced", string_of_bool traced);
         ("bb_nodes", string_of_int !nodes) ]
      @ dse_fields r)
  done

(* ------------------------------------------------------------------ main *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int s = match int_of_string_opt s with Some n -> n | None -> fail "not an integer: %s" s in
  match args with
  | [ "motivating"; out ] -> cmd_motivating out
  | [ "mesh"; seed; rows; cols; out ] -> cmd_mesh ~seed:(int seed) ~rows:(int rows) ~cols:(int cols) out
  | [ "verdict"; file ] -> cmd_verdict file
  | [ "serve-designs"; seed; dir; hits; misses; sessions; walk ] ->
    cmd_serve_designs ~seed:(int seed) ~dir ~hits:(int hits) ~misses:(int misses)
      ~sessions:(int sessions) ~walk:(int walk)
  | [ "analyze-passes"; file; prefix ] -> cmd_analyze_passes ~file ~prefix
  | [ "dse"; seconds; setup_reps ] ->
    cmd_dse ~seconds:(float_of_string seconds) ~setup_reps:(int setup_reps)
  | [ "dse-passes"; prefix ] -> cmd_dse_passes ~prefix
  | _ ->
    prerr_endline
      "usage: driver (motivating OUT | mesh SEED ROWS COLS OUT | verdict FILE | serve-designs SEED DIR \
       HITS MISSES SESSIONS WALK | analyze-passes FILE PREFIX | dse SECONDS SETUP_REPS | \
       dse-passes PREFIX)";
    exit 1
