(** Dense simplex: a cold two-phase primal solve, and a bounded-variable
    dual simplex that re-optimizes a solved LP after its variable bounds
    tighten.

    {!solve} handles {!Lp.t} problems (implicitly non-negative variables).
    Phase 1 drives artificial variables out to find a basic feasible
    solution; phase 2 optimizes the user objective. Entering and leaving
    variables are selected with Bland's rule, which excludes cycling.
    Designed for the small, well-scaled instances the ERMES methodology
    generates (at most a few hundred variables). *)

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

val solve : Lp.t -> outcome
(** [solve lp] returns an optimal basic solution, or reports infeasibility /
    unboundedness. The solution satisfies [Lp.feasible lp x] up to the
    module's tolerance. *)

val eps : float
(** Numerical tolerance used by the pivoting rules ([1e-9]). *)

(** {1 Warm re-optimization}

    A {!warm} value is one working tableau of [m] rows by the structural and
    slack columns of an LP, plus a lower and an upper bound on every column
    (initially [0] and [infinity]). Tightening a bound keeps the current
    basis dual feasible, so {!reoptimize} reaches the new optimum by dual
    simplex pivots from the old one instead of a cold solve. The tableau's
    size never changes. Branch and bound uses it to solve each node from
    its parent's optimum. *)

type warm

val start : Lp.t -> [ `Optimal of warm | `Infeasible | `Unbounded ]
(** [start lp] solves [lp] cold, exactly as {!solve} does (same basis, same
    vertex), and keeps the optimal tableau. Rows found redundant by phase 1
    are dropped from it. *)

val primal : warm -> float array
(** The current values of the structural variables, each clamped into its
    bounds (basic values may sit up to [1e-7] outside them). *)

val tighten : warm -> int -> lo:float -> hi:float -> unit
(** [tighten w j ~lo ~hi] intersects structural variable [j]'s bounds with
    [\[lo, hi\]]. The basis stays dual feasible; the current values may no
    longer be primal feasible until {!reoptimize}.
    @raise Invalid_argument if [j] is not a structural variable. *)

val reoptimize : warm -> bool
(** Restore primal feasibility by dual simplex pivots. [true] when the
    tableau holds an optimum of the bounded LP, [false] when that LP is
    infeasible (including when some variable's bounds are empty). The
    bounded LP is never unbounded: it only ever tightens a bounded one. *)

type snapshot
(** A basis, its nonbasic bound statuses and the structural bounds:
    [O(m + columns)] words, not a tableau. *)

val save : warm -> snapshot

val restore : warm -> snapshot -> unit
(** [restore w s] puts back the bounds and basis of [s] and refactorizes the
    tableau from the original rows by Gauss-Jordan elimination with partial
    pivoting, so [w] is again at the vertex it held when [s] was saved. *)

val root_pivots : warm -> int
(** Pivots of the cold two-phase solve in {!start}. *)

val warm_pivots : warm -> int
(** Dual simplex pivots of every {!reoptimize} so far. *)

val refactors : warm -> int
(** Tableau refactorizations so far, the one that builds the tableau in
    {!start} included. *)
