module Obs = Ermes_obs.Obs

type result =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let int_eps = 1e-6

(* Per domain: several domains may solve at once (the daemon's workers). *)
let last_nodes = Domain.DLS.new_key (fun () -> 0)

let node_count () = Domain.DLS.get last_nodes

let is_integral v = Float.abs (v -. Float.round v) <= int_eps

(* The most fractional integer variable of [x], or [-1] if there is none. *)
let branch_variable integer x =
  let branch_var = ref (-1) in
  let branch_score = ref 0. in
  Array.iteri
    (fun i v ->
      if integer.(i) && not (is_integral v) then begin
        let frac = Float.abs (v -. Float.round v) in
        if frac > !branch_score then begin
          branch_score := frac;
          branch_var := i
        end
      end)
    x;
  !branch_var

let solve ?integer (lp : Lp.t) =
  let integer =
    match integer with Some a -> a | None -> Array.make lp.nvars true
  in
  if Array.length integer <> lp.nvars then
    invalid_arg "Branch_bound.solve: integer mask length mismatch";
  let better =
    match lp.objective with
    | Lp.Maximize -> fun a b -> a > b +. 1e-9
    | Lp.Minimize -> fun a b -> a < b -. 1e-9
  in
  let incumbent = ref None in
  let nodes = ref 1 in
  let result =
    match Simplex.start lp with
    | `Infeasible -> Infeasible
    | `Unbounded -> Unbounded
    | `Optimal w ->
      (* [visit ()] runs with [w] at the optimum of the current node's LP.
         The down child re-optimizes from that vertex in place; the up child
         first restores it from the saved basis. *)
      let rec visit () =
        let x = Simplex.primal w in
        let objective = Lp.objective_value lp x in
        let dominated =
          match !incumbent with
          | Some (_, best) -> not (better objective best)
          | None -> false
        in
        if not dominated then begin
          let i = branch_variable integer x in
          if i < 0 then
            (* Integral on all integer variables: new incumbent. *)
            incumbent := Some (x, objective)
          else begin
            let fl = Float.of_int (int_of_float (Float.floor (x.(i) +. int_eps))) in
            let parent = Simplex.save w in
            child i ~lo:0. ~hi:fl;
            Simplex.restore w parent;
            child i ~lo:(fl +. 1.) ~hi:infinity
          end
        end
      and child i ~lo ~hi =
        incr nodes;
        Simplex.tighten w i ~lo ~hi;
        if Simplex.reoptimize w then visit ()
      in
      visit ();
      Obs.incr ~by:(Simplex.root_pivots w) "ilp.pivots.root";
      Obs.incr ~by:(Simplex.warm_pivots w) "ilp.pivots.warm";
      Obs.incr ~by:(Simplex.refactors w) "ilp.refactors";
      (match !incumbent with
       | None -> Infeasible
       | Some (x, objective) -> Optimal { x; objective })
  in
  Obs.incr ~by:!nodes "ilp.nodes";
  Domain.DLS.set last_nodes !nodes;
  result

let int_solution x =
  Array.mapi
    (fun i v ->
      if is_integral v then int_of_float (Float.round v)
      else
        invalid_arg
          (Printf.sprintf "Branch_bound.int_solution: entry %d is fractional (%g)" i v))
    x
