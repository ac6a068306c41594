(** Integer linear programming by LP-based branch and bound.

    Replaces the GLPK dependency of the paper's prototype. Intended for the
    instances the ERMES methodology generates: one binary variable per
    (process, implementation) pair, one-of-each selection rows, and a single
    budget row — a few hundred variables at most.

    Branching is depth-first on the most fractional integer variable, down
    branch first, with bound pruning against the incumbent. The root LP is a
    cold {!Simplex.start}; every other node re-optimizes one working tableau
    by {!Simplex.reoptimize} after tightening its branching bound
    ([x_i <= k] or [x_i >= k]) as a column bound, and the up branch first
    {!Simplex.restore}s its parent's basis. Each solve adds its totals to the
    [ilp.nodes], [ilp.pivots.root], [ilp.pivots.warm] and [ilp.refactors]
    {!Ermes_obs.Obs} counters. *)

type result =
  | Optimal of { x : float array; objective : float }
      (** [x] entries of integer variables are integral within [1e-6]; use
          {!int_solution} to extract them as ints. Continuous variables may
          take fractional values (mixed-integer programs). *)
  | Infeasible
  | Unbounded  (** the LP relaxation is unbounded *)

val solve : ?integer:bool array -> Lp.t -> result
(** [solve lp] maximizes/minimizes [lp] with the variables marked in
    [integer] (default: all of them) restricted to non-negative integers. *)

val int_solution : float array -> int array
(** Round every entry to the nearest integer.
    @raise Invalid_argument if some entry is farther than [1e-6] from an
    integer — only meaningful for pure ILPs. *)

val node_count : unit -> int
(** Number of branch-and-bound nodes explored by the calling domain's most
    recent {!solve} call, [0] before its first (for the scalability/ablation
    benches). *)
