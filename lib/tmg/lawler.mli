(** Lawler's binary-search algorithm for the maximum cycle ratio.

    The second family of methods in the experimental study the paper cites
    (Dasdan, Irani, Gupta): binary-search the candidate ratio λ and test
    feasibility — a cycle of positive reduced cost [delay − λ·tokens] exists
    iff λ is below the optimum — with a Bellman-Ford longest-path pass per
    probe. The float search narrows to machine precision; the result is then
    made exact by taking the best witness cycle's integer ratio and running
    the same positive-cycle certification Howard's implementation uses.

    Asymptotically O(E·V·log(range)): slower than Howard's policy iteration
    in practice, which is why the paper (and this library) use Howard as the
    production algorithm. Included as a cross-check and for the ablation
    benchmark. *)

type error = Deadlock | No_cycle

val cycle_time : Tmg.t -> (Ratio.t * Tmg.place list, error) result
(** [cycle_time tmg] is the exact maximum cycle ratio (delay sum over token
    sum) and a witness cycle. Agrees with {!Csr.cycle_time} on every live
    net (property-tested). *)

val certified : Tmg.t -> (Ratio.t * Tmg.place list * int array, error) result
(** [certified tmg] is {!cycle_time} extended with per-transition optimality
    potentials: for the returned ratio p/q and every place from [u] to [v],
    [pot.(v) >= pot.(u) + q*delay(v) - p*tokens]. Witness cycle + potentials
    form a complete certificate for [Ermes_verify.Verify.check]. *)
