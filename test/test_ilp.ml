module Lp = Ermes_ilp.Lp
module Simplex = Ermes_ilp.Simplex
module Branch_bound = Ermes_ilp.Branch_bound
module Knapsack = Ermes_ilp.Knapsack

let feps = 1e-6

let check_optimal msg expected = function
  | Simplex.Optimal { objective; _ } -> Alcotest.(check (float feps)) msg expected objective
  | Simplex.Infeasible -> Alcotest.fail (msg ^ ": infeasible")
  | Simplex.Unbounded -> Alcotest.fail (msg ^ ": unbounded")

(* ---- Lp ------------------------------------------------------------------ *)

let test_lp_validation () =
  Alcotest.check_raises "out of range" (Invalid_argument "Lp: variable 3 out of range [0,2)")
    (fun () -> ignore (Lp.make Lp.Maximize [| 1.; 1. |] [ Lp.row [ (3, 1.) ] Lp.Le 1. ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Lp: variable 0 repeated in a row")
    (fun () ->
      ignore (Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, 1.); (0, 2.) ] Lp.Le 1. ]))

let test_lp_feasible () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Le 2.; Lp.row [ (0, 1.) ] Lp.Ge 1. ]
  in
  Alcotest.(check bool) "feasible point" true (Lp.feasible lp [| 1.; 0.5 |]);
  Alcotest.(check bool) "violates row" false (Lp.feasible lp [| 2.; 1. |]);
  Alcotest.(check bool) "negative var" false (Lp.feasible lp [| 1.5; -0.5 |]);
  Alcotest.(check (float feps)) "objective" 1.5 (Lp.objective_value lp [| 1.; 0.5 |])

(* ---- simplex ------------------------------------------------------------- *)

let test_simplex_textbook () =
  (* max x+y st x+2y<=4, 3x+y<=6: optimum 2.8 at (1.6, 1.2). *)
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  (match Simplex.solve lp with
   | Simplex.Optimal { x; objective } ->
     Alcotest.(check (float feps)) "objective" 2.8 objective;
     Alcotest.(check (float feps)) "x0" 1.6 x.(0);
     Alcotest.(check (float feps)) "x1" 1.2 x.(1)
   | _ -> Alcotest.fail "expected optimum")

let test_simplex_minimize () =
  let lp = Lp.make Lp.Minimize [| 2.; 3. |] [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Ge 4. ] in
  check_optimal "minimize" 8. (Simplex.solve lp)

let test_simplex_equality () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 0. |]
      [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Eq 2.; Lp.row [ (1, 1.) ] Lp.Le 0.5 ]
  in
  check_optimal "equality" 2. (Simplex.solve lp)

let test_simplex_infeasible () =
  let lp =
    Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, 1.) ] Lp.Le 1.; Lp.row [ (0, 1.) ] Lp.Ge 2. ]
  in
  (match Simplex.solve lp with
   | Simplex.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  let lp = Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, -1.) ] Lp.Le 0. ] in
  match Simplex.solve lp with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_degenerate () =
  (* Degenerate vertex (three constraints through one point): Bland's rule
     must still terminate. *)
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [
        Lp.row [ (0, 1.) ] Lp.Le 1.;
        Lp.row [ (1, 1.) ] Lp.Le 1.;
        Lp.row [ (0, 1.); (1, 1.) ] Lp.Le 2.;
      ]
  in
  check_optimal "degenerate" 2. (Simplex.solve lp)

let test_simplex_negative_rhs () =
  (* Row with negative rhs: -x <= -2 means x >= 2. *)
  let lp = Lp.make Lp.Minimize [| 1. |] [ Lp.row [ (0, -1.) ] Lp.Le (-2.) ] in
  check_optimal "negative rhs" 2. (Simplex.solve lp)

(* Property: simplex solutions are feasible and (on random bounded problems)
   never beaten by random feasible points. *)
let random_lp_gen =
  QCheck2.Gen.(
    let* nvars = int_range 1 4 in
    let* nrows = int_range 1 4 in
    let* costs = list_repeat nvars (int_range (-5) 5) in
    let* rows =
      list_repeat nrows
        (pair (list_repeat nvars (int_range 0 4)) (int_range 1 10))
    in
    (* All coefficients >= 0 and Le rows with positive rhs: always feasible
       (origin) and bounded whenever some cost > 0 has a positive column...
       boundedness is guaranteed by adding a box row below. *)
    return (costs, rows))

let prop_simplex_sound =
  Helpers.qtest ~count:300 "simplex optimum is feasible and dominates corners"
    random_lp_gen (fun (costs, rows) ->
      let nvars = List.length costs in
      let lp_rows =
        List.map
          (fun (coeffs, rhs) ->
            Lp.row (List.mapi (fun i c -> (i, float_of_int c)) coeffs) Lp.Le
              (float_of_int rhs))
          rows
        (* Box: x_i <= 20 keeps everything bounded. *)
        @ List.init nvars (fun i -> Lp.row [ (i, 1.) ] Lp.Le 20.)
      in
      let lp =
        Lp.make Lp.Maximize (Array.of_list (List.map float_of_int costs)) lp_rows
      in
      match Simplex.solve lp with
      | Simplex.Optimal { x; objective } ->
        Lp.feasible lp x
        && Float.abs (Lp.objective_value lp x -. objective) < 1e-6
        (* The origin is feasible, so the optimum is at least 0 when
           maximizing over it... only if all costs <= 0 the optimum is 0. *)
        && objective >= Lp.objective_value lp (Array.make nvars 0.) -. 1e-9
      | Simplex.Infeasible | Simplex.Unbounded -> false)

(* ---- branch and bound ----------------------------------------------------- *)

let test_bb_textbook () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  match Branch_bound.solve lp with
  | Branch_bound.Optimal { x; objective } ->
    Alcotest.(check (float feps)) "objective" 2. objective;
    let xi = Branch_bound.int_solution x in
    Alcotest.(check int) "integral" 2 (xi.(0) + xi.(1))
  | _ -> Alcotest.fail "expected optimum"

let test_bb_infeasible () =
  (* 2x = 1 has no integer solution. *)
  let lp = Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, 2.) ] Lp.Eq 1. ] in
  match Branch_bound.solve lp with
  | Branch_bound.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_bb_mixed () =
  (* x integer, y continuous: max x + y st x + y <= 2.5. *)
  let lp = Lp.make Lp.Maximize [| 1.; 1. |] [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Le 2.5 ] in
  match Branch_bound.solve ~integer:[| true; false |] lp with
  | Branch_bound.Optimal { x; objective } ->
    Alcotest.(check (float feps)) "mixed objective" 2.5 objective;
    (* The integer variable is integral, the continuous one need not be. *)
    Alcotest.(check (float 1e-6)) "x0 integral" (Float.round x.(0)) x.(0)
  | _ -> Alcotest.fail "expected optimum"

(* Property: B&B on one-of-each + budget problems equals the DP knapsack. *)
let mckp_gen =
  QCheck2.Gen.(
    let* groups = int_range 1 4 in
    let* spec =
      list_repeat groups
        (list_size (int_range 1 4) (pair (int_range 0 8) (int_range 0 9)))
    in
    let* capacity = int_range 0 16 in
    return (spec, capacity))

let solve_mckp_ilp spec capacity =
  let nvars = List.fold_left (fun acc g -> acc + List.length g) 0 spec in
  let costs = Array.make nvars 0. in
  let weights = Array.make nvars 0. in
  let rows = ref [] in
  let next = ref 0 in
  List.iter
    (fun group ->
      let vars =
        List.map
          (fun (w, v) ->
            let id = !next in
            incr next;
            costs.(id) <- float_of_int v;
            weights.(id) <- float_of_int w;
            id)
          group
      in
      rows := Lp.row (List.map (fun id -> (id, 1.)) vars) Lp.Eq 1. :: !rows)
    spec;
  let budget = Lp.row (List.init nvars (fun i -> (i, weights.(i)))) Lp.Le (float_of_int capacity) in
  let lp = Lp.make Lp.Maximize costs (budget :: !rows) in
  match Branch_bound.solve lp with
  | Branch_bound.Optimal { objective; _ } -> Some (int_of_float (Float.round objective))
  | Branch_bound.Infeasible -> None
  | Branch_bound.Unbounded -> None

let prop_bb_vs_dp =
  Helpers.qtest ~count:200 "branch-and-bound equals DP on multiple-choice knapsacks"
    mckp_gen (fun (spec, capacity) ->
      let groups =
        Array.of_list
          (List.map
             (fun g -> Array.of_list (List.map (fun (w, v) -> { Knapsack.weight = w; value = v }) g))
             spec)
      in
      let dp = Knapsack.multiple_choice ~groups ~capacity in
      let ilp = solve_mckp_ilp spec capacity in
      match (dp, ilp) with
      | Some (v, _), Some v' -> v = v'
      | None, None -> true
      | _ -> false)

let test_bb_node_count () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  (match Branch_bound.solve lp with Branch_bound.Optimal _ -> () | _ -> Alcotest.fail "opt");
  Alcotest.(check bool) "explored nodes" true (Branch_bound.node_count () >= 1)

let test_bb_unbounded () =
  (* max x0 + x1 st x0 - x1 <= 0.5: the relaxation is unbounded, and so is
     the ILP. *)
  let lp = Lp.make Lp.Maximize [| 1.; 1. |] [ Lp.row [ (0, 1.); (1, -1.) ] Lp.Le 0.5 ] in
  match Branch_bound.solve lp with
  | Branch_bound.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

(* Random small ILPs over general integers: every variable boxed in 0..3 by a
   row, plus mixed Le/Ge/Eq rows with signed coefficients and rhs, under
   either sense. Branching then moves bounds off 0/1, leaves variables
   nonbasic at their upper bounds and yields empty children. *)
let general_ilp_gen =
  QCheck2.Gen.(
    let* nvars = int_range 1 4 in
    let* maximize = bool in
    let* costs = list_repeat nvars (int_range (-5) 5) in
    let* nrows = int_range 1 4 in
    let* rows =
      list_repeat nrows
        (triple
           (list_repeat nvars (int_range (-3) 3))
           (frequency [ (3, return Lp.Le); (3, return Lp.Ge); (1, return Lp.Eq) ])
           (int_range (-4) 8))
    in
    return (maximize, costs, rows))

let general_ilp (maximize, costs, rows) =
  let nvars = List.length costs in
  let rows =
    List.map
      (fun (coeffs, op, rhs) ->
        Lp.row (List.mapi (fun i c -> (i, float_of_int c)) coeffs) op (float_of_int rhs))
      rows
    @ List.init nvars (fun i -> Lp.row [ (i, 1.) ] Lp.Le 3.)
  in
  Lp.make
    (if maximize then Lp.Maximize else Lp.Minimize)
    (Array.of_list (List.map float_of_int costs))
    rows

(* The best objective over every integer point of the 0..3 box, exactly. *)
let brute_force_ilp (maximize, costs, rows) =
  let nvars = List.length costs in
  let satisfied x (coeffs, op, rhs) =
    let lhs = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * x.(i)) coeffs) in
    match op with Lp.Le -> lhs <= rhs | Lp.Ge -> lhs >= rhs | Lp.Eq -> lhs = rhs
  in
  let best = ref None in
  let x = Array.make nvars 0 in
  let rec go i =
    if i = nvars then begin
      if List.for_all (satisfied x) rows then begin
        let v = List.fold_left ( + ) 0 (List.mapi (fun i c -> c * x.(i)) costs) in
        match !best with
        | Some b when (if maximize then b >= v else b <= v) -> ()
        | _ -> best := Some v
      end
    end
    else
      for v = 0 to 3 do
        x.(i) <- v;
        go (i + 1)
      done
  in
  go 0;
  !best

let prop_bb_vs_brute =
  Helpers.qtest ~count:500 "branch-and-bound equals brute force on general ILPs"
    general_ilp_gen (fun spec ->
      let lp = general_ilp spec in
      match (Branch_bound.solve lp, brute_force_ilp spec) with
      | Branch_bound.Optimal { x; objective }, Some best ->
        Float.abs (objective -. float_of_int best) < 1e-6
        && Lp.feasible lp x
        && Array.for_all (fun v -> Float.abs (v -. Float.round v) <= 1e-6) x
      | Branch_bound.Infeasible, None -> true
      | _ -> false)

(* Property: tightening bounds on a solved LP and re-optimizing by dual
   simplex reaches the cold optimum of the LP with those bounds as rows, and
   restoring a snapshot brings back the vertex it was taken at. *)
let prop_warm_vs_cold =
  Helpers.qtest ~count:300 "warm re-optimization equals a cold solve with bound rows"
    QCheck2.Gen.(
      pair general_ilp_gen
        (list_size (int_range 1 5) (triple (int_range 0 3) bool (int_range 0 3))))
    (fun (spec, cuts) ->
      let lp = general_ilp spec in
      match Simplex.start lp with
      | `Infeasible | `Unbounded -> true
      | `Optimal w ->
        let root = Simplex.primal w in
        let saved = Simplex.save w in
        let rec apply extra = function
          | [] -> true
          | (i, upper, k) :: rest ->
            let i = i mod lp.Lp.nvars and k = float_of_int k in
            let extra =
              Lp.row [ (i, 1.) ] (if upper then Lp.Le else Lp.Ge) k :: extra
            in
            if upper then Simplex.tighten w i ~lo:0. ~hi:k
            else Simplex.tighten w i ~lo:k ~hi:infinity;
            let cold = Simplex.solve { lp with Lp.rows = extra @ lp.Lp.rows } in
            (match (Simplex.reoptimize w, cold) with
             | true, Simplex.Optimal { objective; _ } ->
               let x = Simplex.primal w in
               Float.abs (Lp.objective_value lp x -. objective) < 1e-6
               && Lp.feasible { lp with Lp.rows = extra @ lp.Lp.rows } x
               && apply extra rest
             | false, Simplex.Infeasible -> true
             | _ -> false)
        in
        apply [] cuts
        &&
        (Simplex.restore w saved;
         Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) root (Simplex.primal w)))

(* [node_count] is per domain: a domain reads back its own last solve, never
   another domain's, whether the other solve ran before, after or at the
   same time. *)
let test_bb_node_count_domains () =
  let small =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  let large =
    Lp.make Lp.Maximize [| 5.; 4.; 3.; 7.; 6. |]
      [ Lp.row [ (0, 2.); (1, 3.); (2, 1.); (3, 4.); (4, 5.) ] Lp.Le 10.5 ]
  in
  let nodes lp =
    ignore (Branch_bound.solve lp);
    Branch_bound.node_count ()
  in
  let n_small = nodes small in
  let fresh, n_large =
    Domain.join
      (Domain.spawn (fun () ->
           let fresh = Branch_bound.node_count () in
           (fresh, nodes large)))
  in
  Alcotest.(check bool) "the two ILPs differ in nodes" true (n_small <> n_large);
  Alcotest.(check int) "a fresh domain has solved nothing" 0 fresh;
  Alcotest.(check int) "another domain's solve leaves ours" n_small (Branch_bound.node_count ());
  let worker lp expected () =
    let bad = ref 0 in
    for _ = 1 to 300 do
      if nodes lp <> expected then incr bad
    done;
    !bad
  in
  let d = Domain.spawn (worker large n_large) in
  let bad_small = worker small n_small () in
  let bad_large = Domain.join d in
  Alcotest.(check int) "concurrent: main domain reads its own count" 0 bad_small;
  Alcotest.(check int) "concurrent: spawned domain reads its own count" 0 bad_large

let test_simplex_redundant_equalities () =
  (* Two identical equality rows: phase 1 leaves a basic artificial in a
     redundant row; phase 2 must still solve. *)
  let lp =
    Lp.make Lp.Maximize [| 1. |]
      [ Lp.row [ (0, 1.) ] Lp.Eq 2.; Lp.row [ (0, 1.) ] Lp.Eq 2. ]
  in
  check_optimal "redundant equalities" 2. (Simplex.solve lp)

let test_lp_pp_smoke () =
  let lp = Lp.make Lp.Minimize [| 2.; 0. |] [ Lp.row [ (0, 1.); (1, -1.) ] Lp.Ge 3. ] in
  let text = Format.asprintf "%a" Lp.pp lp in
  Alcotest.(check bool) "mentions minimize" true (Astring_contains.contains text "minimize");
  Alcotest.(check bool) "mentions row" true (Astring_contains.contains text ">= 3")

(* ---- knapsack ------------------------------------------------------------ *)

let test_knapsack_01 () =
  let items =
    [| { Knapsack.weight = 2; value = 3 }; { weight = 3; value = 4 }; { weight = 4; value = 5 } |]
  in
  let v, chosen = Knapsack.zero_one ~items ~capacity:5 in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check (list bool)) "chosen" [ true; true; false ] (Array.to_list chosen)

let test_knapsack_01_zero_capacity () =
  let items = [| { Knapsack.weight = 1; value = 5 } |] in
  let v, chosen = Knapsack.zero_one ~items ~capacity:0 in
  Alcotest.(check int) "value" 0 v;
  Alcotest.(check (list bool)) "nothing" [ false ] (Array.to_list chosen)

let test_mckp () =
  let groups =
    [|
      [| { Knapsack.weight = 3; value = 10 }; { weight = 1; value = 4 } |];
      [| { Knapsack.weight = 2; value = 7 }; { weight = 5; value = 20 } |];
    |]
  in
  (match Knapsack.multiple_choice ~groups ~capacity:5 with
   | Some (v, choice) ->
     Alcotest.(check int) "value" 17 v;
     Alcotest.(check (list int)) "choice" [ 0; 0 ] (Array.to_list choice)
   | None -> Alcotest.fail "expected a solution");
  (* Capacity too small for any selection. *)
  match Knapsack.multiple_choice ~groups ~capacity:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None"

let test_mckp_negative_values () =
  (* Negative values are legal (area gains can be negative). *)
  let groups = [| [| { Knapsack.weight = 0; value = -5 }; { weight = 3; value = -1 } |] |] in
  match Knapsack.multiple_choice ~groups ~capacity:2 with
  | Some (v, choice) ->
    Alcotest.(check int) "picks least bad feasible" (-5) v;
    Alcotest.(check (list int)) "choice" [ 0 ] (Array.to_list choice)
  | None -> Alcotest.fail "expected a solution"

let brute_mckp groups capacity =
  let n = Array.length groups in
  let best = ref None in
  let rec go i weight value =
    if weight > capacity then ()
    else if i = n then
      match !best with
      | Some b when b >= value -> ()
      | _ -> best := Some value
    else
      Array.iter (fun it -> go (i + 1) (weight + it.Knapsack.weight) (value + it.Knapsack.value)) groups.(i)
  in
  go 0 0 0;
  !best

let prop_mckp_vs_brute =
  Helpers.qtest ~count:300 "DP knapsack equals brute force" mckp_gen
    (fun (spec, capacity) ->
      let groups =
        Array.of_list
          (List.map
             (fun g -> Array.of_list (List.map (fun (w, v) -> { Knapsack.weight = w; value = v }) g))
             spec)
      in
      match (Knapsack.multiple_choice ~groups ~capacity, brute_mckp groups capacity) with
      | Some (v, choice), Some b ->
        v = b
        && Array.length choice = Array.length groups
        &&
        let w = ref 0 and value = ref 0 in
        Array.iteri
          (fun g i ->
            w := !w + groups.(g).(i).Knapsack.weight;
            value := !value + groups.(g).(i).Knapsack.value)
          choice;
        !w <= capacity && !value = v
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let () =
  Alcotest.run "ilp"
    [
      ( "lp",
        [
          Alcotest.test_case "validation" `Quick test_lp_validation;
          Alcotest.test_case "feasible" `Quick test_lp_feasible;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook" `Quick test_simplex_textbook;
          Alcotest.test_case "minimize" `Quick test_simplex_minimize;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "redundant equalities" `Quick test_simplex_redundant_equalities;
          Alcotest.test_case "pp smoke" `Quick test_lp_pp_smoke;
        ] );
      ( "branch-and-bound",
        [
          Alcotest.test_case "textbook" `Quick test_bb_textbook;
          Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
          Alcotest.test_case "mixed integer" `Quick test_bb_mixed;
          Alcotest.test_case "node count" `Quick test_bb_node_count;
          Alcotest.test_case "unbounded" `Quick test_bb_unbounded;
          Alcotest.test_case "node count per domain" `Quick test_bb_node_count_domains;
        ] );
      ( "knapsack",
        [
          Alcotest.test_case "0/1" `Quick test_knapsack_01;
          Alcotest.test_case "0/1 zero capacity" `Quick test_knapsack_01_zero_capacity;
          Alcotest.test_case "multiple choice" `Quick test_mckp;
          Alcotest.test_case "negative values" `Quick test_mckp_negative_values;
        ] );
      ( "property",
        [
          prop_simplex_sound;
          prop_bb_vs_dp;
          prop_mckp_vs_brute;
          prop_bb_vs_brute;
          prop_warm_vs_cold;
        ] );
    ]
