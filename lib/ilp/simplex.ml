type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* Primal feasibility tolerance of the dual simplex: a basic value may sit
   this far outside its bounds. It matches the cold solve's phase-1
   infeasibility threshold. *)
let feas_tol = 1e-7

(* Gauss-Jordan pivot on [tab.(row).(col)] over rows [0 .. nrows-1] and
   columns [0 .. upto]. The pivot column becomes an exact unit vector
   ([pv /. pv] is exactly 1 and [f -. f *. 1.] exactly 0), and so stays every
   other basic column. *)
let eliminate tab ~nrows ~row ~col ~upto =
  let pr = tab.(row) in
  let pv = pr.(col) in
  for j = 0 to upto do
    pr.(j) <- pr.(j) /. pv
  done;
  for i = 0 to nrows - 1 do
    if i <> row then begin
      let ri = tab.(i) in
      let f = ri.(col) in
      if f <> 0. then
        for j = 0 to upto do
          ri.(j) <- ri.(j) -. (f *. pr.(j))
        done
    end
  done

(* ---- cold two-phase primal simplex --------------------------------------- *)

(* Mutable tableau: [m] constraint rows over [ncols] structural columns plus a
   rhs column; [basis.(i)] is the column basic in row [i]. The objective is
   handled by explicit reduced-cost computation (the instances are tiny, so
   clarity wins over carrying a priced-out objective row). *)
type tableau = {
  m : int;
  ncols : int;
  a : float array array;  (* m x (ncols + 1); last column is rhs *)
  basis : int array;
  mutable pivots : int;
}

let reduced_cost t c j =
  let z = ref 0. in
  for i = 0 to t.m - 1 do
    let cb = c.(t.basis.(i)) in
    if cb <> 0. then z := !z +. (cb *. t.a.(i).(j))
  done;
  !z -. c.(j)

let pivot t ~row ~col =
  eliminate t.a ~nrows:t.m ~row ~col ~upto:t.ncols;
  t.basis.(row) <- col;
  t.pivots <- t.pivots + 1

(* Bland's rule: entering = smallest column with negative reduced cost;
   leaving = ratio test, ties broken by smallest basis column. Maximizes
   [c.x]. Returns [None] on unboundedness. *)
let optimize t c =
  let rec loop () =
    let entering = ref (-1) in
    (let j = ref 0 in
     while !entering < 0 && !j < t.ncols do
       if reduced_cost t c !j < -.eps then entering := !j;
       incr j
     done);
    if !entering < 0 then Some ()
    else begin
      let col = !entering in
      let best = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let aij = t.a.(i).(col) in
        if aij > eps then begin
          let ratio = t.a.(i).(t.ncols) /. aij in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
               && (!best < 0 || t.basis.(i) < t.basis.(!best)))
          then begin
            best := i;
            best_ratio := ratio
          end
        end
      done;
      if !best < 0 then None
      else begin
        pivot t ~row:!best ~col;
        loop ()
      end
    end
  in
  loop ()

let objective_of t c =
  let v = ref 0. in
  for i = 0 to t.m - 1 do
    v := !v +. (c.(t.basis.(i)) *. t.a.(i).(t.ncols))
  done;
  !v

(* The standard form of [lp]: every row normalized to a non-negative rhs,
   then [A | slack and surplus | artificial | b] with the slack (Le) or
   artificial (Ge, Eq) of each row basic. The artificial columns are
   [n + nslack .. ncols - 1]. *)
type standard = {
  t : tableau;
  n : int;  (* structural columns *)
  nslack : int;  (* slack and surplus columns, [n .. n + nslack - 1] *)
  artificial_row : int array;  (* row of artificial column [n + nslack + k] *)
}

let standard_form (lp : Lp.t) =
  let rows = Array.of_list lp.rows in
  let m = Array.length rows in
  (* Normalize every row to non-negative rhs, then count extra columns:
     Le -> slack; Ge -> surplus + artificial; Eq -> artificial. *)
  let normalized =
    Array.map
      (fun (r : Lp.row) ->
        if r.rhs < 0. then
          let coeffs = List.map (fun (i, c) -> (i, -.c)) r.coeffs in
          let op = match r.op with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq in
          { Lp.coeffs; op; rhs = -.r.rhs }
        else r)
      rows
  in
  let n = lp.nvars in
  let nslack =
    Array.fold_left
      (fun acc (r : Lp.row) -> match r.op with Lp.Le | Lp.Ge -> acc + 1 | Lp.Eq -> acc)
      0 normalized
  in
  let nartif =
    Array.fold_left
      (fun acc (r : Lp.row) -> match r.op with Lp.Ge | Lp.Eq -> acc + 1 | Lp.Le -> acc)
      0 normalized
  in
  let ncols = n + nslack + nartif in
  let a = Array.make_matrix m (ncols + 1) 0. in
  let basis = Array.make m (-1) in
  let slack_next = ref n in
  let artif_next = ref (n + nslack) in
  let artificial_row = Array.make nartif 0 in
  let add_artificial i =
    a.(i).(!artif_next) <- 1.;
    basis.(i) <- !artif_next;
    artificial_row.(!artif_next - n - nslack) <- i;
    incr artif_next
  in
  Array.iteri
    (fun i (r : Lp.row) ->
      List.iter (fun (j, c) -> a.(i).(j) <- c) r.coeffs;
      a.(i).(ncols) <- r.rhs;
      match r.op with
      | Lp.Le ->
        a.(i).(!slack_next) <- 1.;
        basis.(i) <- !slack_next;
        incr slack_next
      | Lp.Ge ->
        a.(i).(!slack_next) <- -1.;
        incr slack_next;
        add_artificial i
      | Lp.Eq -> add_artificial i)
    normalized;
  { t = { m; ncols; a; basis; pivots = 0 }; n; nslack; artificial_row }

(* The objective in maximization form: [sign *. c.x] is maximized. *)
let sign_of (lp : Lp.t) = match lp.objective with Lp.Maximize -> 1. | Lp.Minimize -> -1.

(* Run both phases on [s.t] in place. On [`Optimal c2] the tableau holds the
   optimal basis of the maximization of [c2.x]. *)
let two_phase (lp : Lp.t) s =
  let t = s.t in
  let m = t.m and n = s.n and nslack = s.nslack and ncols = t.ncols in
  let first_artificial = n + nslack in
  (* Phase 1: maximize minus the sum of artificials. *)
  let feasible =
    if first_artificial = ncols then true
    else begin
      let c1 = Array.init ncols (fun j -> if j >= first_artificial then -1. else 0.) in
      match optimize t c1 with
      | None -> false  (* cannot happen: phase-1 objective is bounded by 0 *)
      | Some () ->
        if objective_of t c1 < -1e-7 then false
        else begin
          (* Pivot any still-basic artificial out on a structural column; a
             row with no such column is redundant and can stay (its rhs is
             zero). *)
          for i = 0 to m - 1 do
            if t.basis.(i) >= first_artificial then begin
              let j = ref 0 and found = ref false in
              while (not !found) && !j < first_artificial do
                if Float.abs t.a.(i).(!j) > eps then begin
                  pivot t ~row:i ~col:!j;
                  found := true
                end;
                incr j
              done
            end
          done;
          true
        end
    end
  in
  if not feasible then `Infeasible
  else begin
    (* Phase 2: artificial columns must never re-enter. Zero them out of the
       tableau entirely and give them zero cost: a zero column has zero
       reduced cost, is never selected as entering (strictly negative reduced
       cost required), and an artificial left basic in a redundant row sits
       harmlessly at level zero. *)
    for i = 0 to m - 1 do
      Array.fill t.a.(i) first_artificial (ncols - first_artificial) 0.
    done;
    let sign = sign_of lp in
    let c2 = Array.make ncols 0. in
    Array.iteri (fun j c -> c2.(j) <- sign *. c) lp.costs;
    match optimize t c2 with None -> `Unbounded | Some () -> `Optimal c2
  end

let solve (lp : Lp.t) =
  let s = standard_form lp in
  match two_phase lp s with
  | `Infeasible -> Infeasible
  | `Unbounded -> Unbounded
  | `Optimal c2 ->
    let t = s.t in
    let x = Array.make lp.nvars 0. in
    for i = 0 to t.m - 1 do
      if t.basis.(i) < lp.nvars then x.(t.basis.(i)) <- t.a.(i).(t.ncols)
    done;
    (* Clamp tiny negatives produced by roundoff. *)
    Array.iteri (fun i v -> if v < 0. && v > -1e-7 then x.(i) <- 0.) x;
    Optimal { x; objective = sign_of lp *. objective_of t c2 }

(* ---- bounded-variable dual simplex --------------------------------------- *)

(* A working tableau over the structural and slack columns of the rows that
   are not redundant, with per-column bounds. Rows [0 .. m-1] hold
   [B^-1 [A | S]]; row [m] holds the reduced costs [c_B B^-1 a_j - c_j] of the
   maximization. Column [width] holds the value of each row's basic variable
   (row [m]'s entry is unused); a nonbasic variable sits at its lower bound,
   or at its upper bound when [at_upper] says so. Only the original rows, a
   basis and bounds are needed to rebuild it. *)
type warm = {
  n : int;
  width : int;  (* structural + slack columns *)
  rows : int;  (* m: constraint rows kept *)
  orig : float array array;  (* m x (width + 1): [A | S | b] *)
  cost : float array;  (* width; maximization sense *)
  tab : float array array;  (* (m + 1) x (width + 1) *)
  basis : int array;
  lo : float array;
  hi : float array;
  at_upper : bool array;
  root_pivots : int;
  mutable warm_pivots : int;
  mutable refactors : int;
}

let nonbasic_value w j = if w.at_upper.(j) then w.hi.(j) else w.lo.(j)

let is_basic w j = Array.exists (fun b -> b = j) w.basis

(* Rebuild the tableau for [w.basis], [w.at_upper] and the bounds from the
   original rows: move the nonbasic columns' values to the right-hand side,
   then Gauss-Jordan with partial pivoting, swapping rows so that basic
   column [basis.(k)] ends up as the unit vector of row [k]. *)
let refactor w =
  w.refactors <- w.refactors + 1;
  let m = w.rows and width = w.width and tab = w.tab in
  let basic = Array.make width false in
  Array.iter (fun j -> basic.(j) <- true) w.basis;
  for i = 0 to m - 1 do
    let src = w.orig.(i) and dst = tab.(i) in
    Array.blit src 0 dst 0 (width + 1);
    for j = 0 to width - 1 do
      if not basic.(j) then begin
        let v = nonbasic_value w j in
        if v <> 0. && src.(j) <> 0. then dst.(width) <- dst.(width) -. (src.(j) *. v)
      end
    done
  done;
  let obj = tab.(m) in
  for j = 0 to width - 1 do
    obj.(j) <- -.w.cost.(j)
  done;
  obj.(width) <- 0.;
  for k = 0 to m - 1 do
    let col = w.basis.(k) in
    let p = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs tab.(i).(col) > Float.abs tab.(!p).(col) then p := i
    done;
    if tab.(!p).(col) = 0. then failwith "Simplex.restore: singular basis";
    let r = tab.(k) in
    tab.(k) <- tab.(!p);
    tab.(!p) <- r;
    eliminate tab ~nrows:(m + 1) ~row:k ~col ~upto:width
  done

let start (lp : Lp.t) =
  let s = standard_form lp in
  let width = s.n + s.nslack in
  (* [A | S | b] before any pivot: what every refactorization starts from. *)
  let original =
    Array.map (fun r -> Array.append (Array.sub r 0 width) [| r.(s.t.ncols) |]) s.t.a
  in
  match two_phase lp s with
  | (`Infeasible | `Unbounded) as failed -> failed
  | `Optimal _ ->
    let t = s.t in
    (* A row whose artificial is still basic is a combination of the other
       rows: drop the original row that artificial stands for. The other
       basic columns are a basis of what is left. *)
    let redundant = Array.make t.m false in
    Array.iter
      (fun b -> if b >= width then redundant.(s.artificial_row.(b - width)) <- true)
      t.basis;
    let orig =
      Array.of_list (List.filteri (fun i _ -> not redundant.(i)) (Array.to_list original))
    in
    let rows = Array.length orig in
    let sign = sign_of lp in
    let cost = Array.make width 0. in
    Array.iteri (fun j c -> cost.(j) <- sign *. c) lp.costs;
    let w =
      {
        n = s.n;
        width;
        rows;
        orig;
        cost;
        tab = Array.make_matrix (rows + 1) (width + 1) 0.;
        basis = Array.of_list (List.filter (fun b -> b < width) (Array.to_list t.basis));
        lo = Array.make width 0.;
        hi = Array.make width infinity;
        at_upper = Array.make width false;
        root_pivots = t.pivots;
        warm_pivots = 0;
        refactors = 0;
      }
    in
    refactor w;
    `Optimal w

let primal w =
  let x = Array.init w.n (nonbasic_value w) in
  Array.iteri
    (fun i b ->
      if b < w.n then x.(b) <- Float.min w.hi.(b) (Float.max w.lo.(b) w.tab.(i).(w.width)))
    w.basis;
  x

let tighten w j ~lo ~hi =
  if j < 0 || j >= w.n then invalid_arg "Simplex.tighten: not a structural variable";
  let before = nonbasic_value w j in
  w.lo.(j) <- Float.max w.lo.(j) lo;
  w.hi.(j) <- Float.min w.hi.(j) hi;
  let shift = nonbasic_value w j -. before in
  if shift <> 0. && not (is_basic w j) then
    for i = 0 to w.rows - 1 do
      let ri = w.tab.(i) in
      ri.(w.width) <- ri.(w.width) -. (ri.(j) *. shift)
    done

(* Dual simplex from a dual-feasible basis (reduced costs >= 0 at lower
   bounds, <= 0 at upper bounds, as every optimal basis is). The leaving row
   is the basic variable farthest outside its bounds; it leaves at the bound
   it violates. The entering column is the eligible nonbasic with the
   smallest |d_j / alpha_rj|, which keeps every reduced cost's sign; ties
   prefer the larger |alpha| for stability. After [bland_after] pivots both
   choices fall back to the lowest index (Bland's rule), which cannot cycle. *)
let reoptimize w =
  let m = w.rows and width = w.width and tab = w.tab in
  let obj = tab.(m) in
  let bland_after = 4 * (m + width) in
  let rec loop iters =
    let bland = iters >= bland_after in
    let r = ref (-1) and worst = ref 0. in
    for i = 0 to m - 1 do
      let b = w.basis.(i) and v = tab.(i).(width) in
      let violation = Float.max (w.lo.(b) -. v) (v -. w.hi.(b)) in
      if violation > feas_tol then
        if bland then begin
          if !r < 0 || b < w.basis.(!r) then r := i
        end
        else if violation > !worst then begin
          r := i;
          worst := violation
        end
    done;
    if !r < 0 then true
    else begin
      let r = !r in
      let row = tab.(r) in
      let leaving = w.basis.(r) in
      let value = row.(width) in
      let below = value < w.lo.(leaving) in
      (* Eligible columns move the leaving variable toward the violated
         bound: from below, [alpha < 0] at a lower bound or [alpha > 0] at an
         upper bound; from above, the opposite signs. Basic columns other
         than [leaving] are exactly zero in this row. *)
      let enter = ref (-1) and best_ratio = ref infinity and best_alpha = ref 0. in
      for j = 0 to width - 1 do
        let alpha = row.(j) in
        if j <> leaving && Float.abs alpha > eps && w.lo.(j) < w.hi.(j) then begin
          let toward = if below then alpha < 0. else alpha > 0. in
          if toward <> w.at_upper.(j) then begin
            let ratio = Float.abs obj.(j) /. Float.abs alpha in
            if
              ratio < !best_ratio -. eps
              || ((not bland) && ratio < !best_ratio +. eps
                 && Float.abs alpha > !best_alpha)
            then begin
              enter := j;
              best_ratio := ratio;
              best_alpha := Float.abs alpha
            end
          end
        end
      done;
      if !enter < 0 then false
      else begin
        let j = !enter in
        let alpha = row.(j) in
        let target = if below then w.lo.(leaving) else w.hi.(leaving) in
        let delta = (value -. target) /. alpha in
        let entering_value = nonbasic_value w j +. delta in
        for i = 0 to m - 1 do
          let ri = tab.(i) in
          ri.(width) <- ri.(width) -. (ri.(j) *. delta)
        done;
        eliminate tab ~nrows:(m + 1) ~row:r ~col:j ~upto:(width - 1);
        row.(width) <- entering_value;
        w.basis.(r) <- j;
        w.at_upper.(leaving) <- not below;
        w.at_upper.(j) <- false;
        w.warm_pivots <- w.warm_pivots + 1;
        loop (iters + 1)
      end
    end
  in
  (not (Array.exists2 (fun lo hi -> lo > hi) w.lo w.hi)) && loop 0

type snapshot = {
  s_basis : int array;
  s_upper : bool array;
  s_lo : float array;  (* structural bounds only: slack bounds never change *)
  s_hi : float array;
}

let save w =
  {
    s_basis = Array.copy w.basis;
    s_upper = Array.copy w.at_upper;
    s_lo = Array.sub w.lo 0 w.n;
    s_hi = Array.sub w.hi 0 w.n;
  }

let restore w s =
  Array.blit s.s_basis 0 w.basis 0 w.rows;
  Array.blit s.s_upper 0 w.at_upper 0 w.width;
  Array.blit s.s_lo 0 w.lo 0 w.n;
  Array.blit s.s_hi 0 w.hi 0 w.n;
  refactor w

let root_pivots w = w.root_pivots
let warm_pivots w = w.warm_pivots
let refactors w = w.refactors
