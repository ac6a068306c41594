(** Karp's maximum cycle mean algorithm (baseline for the ablation bench).

    Karp (1978) computes the maximum over directed cycles of
    [weight(C) / length(C)] in Θ(V·E) time via the characterization
    λ* = max{v} min{0 ≤ k < n} (Dₙ(v) − Dₖ(v)) / (n − k), where Dₖ(v) is the
    maximum weight of a k-arc walk ending in [v].

    This solves the cycle {e mean} problem, i.e. the cycle-ratio problem with
    one token per place. On a TMG whose places all hold exactly one token it
    agrees with {!Csr.cycle_time}; the test suite uses that agreement, and
    the benchmark harness compares the two implementations' running times. *)

val max_cycle_mean : ('v, int) Ermes_digraph.Digraph.t -> Ratio.t option
(** [max_cycle_mean g] over an arc-weighted digraph; [None] if [g] is acyclic.
    Handles disconnected graphs by running per strongly connected component
    and returning the worst (largest) mean. *)

val of_unit_tmg : Tmg.t -> Ratio.t option
(** [of_unit_tmg tmg] is the cycle time of a TMG in which {e every} place
    holds exactly one token. @raise Invalid_argument if some place does not
    hold exactly one token. *)

val of_unit_tmg_certified : Tmg.t -> (Ratio.t * Tmg.place list * int array) option
(** [of_unit_tmg_certified tmg] is {!of_unit_tmg} extended with a witness
    cycle attaining the mean exactly and per-transition optimality
    potentials ([pot.(dst) >= pot.(src) + q*delay(dst) - p] for every place,
    where the mean is p/q) — a complete certificate for
    [Ermes_verify.Verify.check]. @raise Invalid_argument like
    {!of_unit_tmg}. *)
