(** Linear-program representation.

    Variables are indexed [0 .. nvars-1] and implicitly non-negative; any
    other bound a caller wants is an ordinary constraint row. (Branch and
    bound's own branching bounds never become rows: {!Simplex} keeps them as
    per-column bounds of its working tableau.) *)

type op = Le | Ge | Eq

type objective = Maximize | Minimize

type row = { coeffs : (int * float) list; op : op; rhs : float }
(** A sparse constraint row: [sum coeffs op rhs]. Variable indices may not
    repeat within a row. *)

type t = {
  nvars : int;
  objective : objective;
  costs : float array;  (** length [nvars] *)
  rows : row list;
}

val make : objective -> float array -> row list -> t
(** [make obj costs rows] validates indices and builds a problem.
    @raise Invalid_argument on out-of-range or duplicate variable indices. *)

val row : (int * float) list -> op -> float -> row

val eval_row : row -> float array -> float
(** Left-hand-side value of a row at a point. *)

val feasible : ?eps:float -> t -> float array -> bool
(** [feasible lp x] checks non-negativity and every row within tolerance
    [eps] (default [1e-6]). *)

val objective_value : t -> float array -> float

val pp : Format.formatter -> t -> unit
