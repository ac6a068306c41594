(** Machine-checkable certificates for TMG analyses, and their independent
    checker.

    The solvers ({!Ermes_tmg.Csr}'s Howard, and the pointer cross-checks
    {!Ermes_tmg.Karp}, {!Ermes_tmg.Lawler}, {!Ermes_tmg.Liveness}) are the
    trusted-computing base of every verdict this toolkit emits — and with
    warm-started, cache-heavy solving (incremental sessions, policy reuse,
    potential reuse) that base has real state to get wrong. Each analysis
    therefore returns a small {e certificate} whose validity implies the
    verdict, and this module checks it {e independently}: the checker reads
    only a plain {!Ermes_tmg.Csr.t} freeze of the net (a field-by-field
    copy) and uses exact integer arithmetic — no solver code, no floats, no
    caches. A bug anywhere in the solver stack (or a stale cache) produces a
    certificate the checker rejects; it cannot produce a wrong verdict that
    still checks out.

    Certificate semantics (paper §3: deadlock freedom ⇔ no token-free
    cycle; cycle time = maximum cycle ratio):

    - {!Bounded}: the net is live and its maximum cycle ratio is exactly
      [ratio] = p/q. The {e witness} cycle attains p/q (lower bound); the
      {e potentials} prove no cycle exceeds it (upper bound): summing
      [pot(dst) - pot(src) >= q*delay - p*tokens] around any cycle gives
      [q*delay(C) <= p*tokens(C)]. The {e ranks} topologically order the
      token-free subgraph, proving liveness.
    - {!Deadlocked}: a token-free cycle — its transitions can never fire.
    - {!Acyclic}: a topological order of the whole net — no cycle exists,
      so no steady-state constraint (and trivially no deadlock).

    Every obligation is checked in O(E) with machine integers (delay and
    token magnitudes are bounded far below overflow, see
    {!Ermes_tmg.Ratio}). *)

module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio

type t =
  | Bounded of {
      ratio : Ratio.t;  (** claimed maximum cycle ratio p/q *)
      witness : Tmg.place list;
          (** a cycle (as places in arc order) attaining exactly p/q *)
      potentials : int array;
          (** per transition: [pot.(dst p) >= pot.(src p) + q*delay(dst p) -
              p*tokens(p)] for {e every} place [p] *)
      ranks : int array;
          (** per transition: [ranks.(src p) < ranks.(dst p)] for every
              token-free place [p] — liveness proof *)
    }
  | Deadlocked of { cycle : Tmg.place list }
      (** a token-free cycle, as places in arc order *)
  | Acyclic of { ranks : int array }
      (** per transition: [ranks.(src p) < ranks.(dst p)] for {e every}
          place [p] *)
  | Live of { ranks : int array }
      (** liveness proof alone (no cycle-time claim): [ranks.(src p) <
          ranks.(dst p)] for every {e token-free} place [p] *)

type violation = {
  obligation : string;  (** short name of the failed proof obligation *)
  detail : string;  (** what exactly did not hold *)
}

val check_csr : Ermes_tmg.Csr.t -> t -> (unit, violation) result
(** [check_csr g cert] validates every proof obligation of [cert] against
    the frozen net [g]: allocation-free scans over the flat arrays in exact
    integer arithmetic, never calling solver code. O(E), suitable for
    million-place nets. The freeze itself joins the trusted base: for full
    independence pass a fresh {!Ermes_tmg.Csr.of_tmg}, not a solver's
    internal state. Freeze once and reuse [g] to check several certificates
    of the same net. *)

val check : Tmg.t -> t -> (unit, violation) result
(** [check tmg cert] is [check_csr (Csr.of_tmg tmg) cert]. *)

val describe : t -> string
(** One-line human-readable summary ("bounded: ratio 12/1, witness of 5
    places, ..."). *)

val pp_violation : Format.formatter -> violation -> unit

(** {2 Constructors from solver outputs}

    These translate each solver's native result into a certificate. They may
    call solver code (only the checker is independent); a disagreement between
    the pieces they assemble yields a certificate {!check} rejects, never a
    silently wrong one. *)

val of_howard_csr :
  Ermes_tmg.Csr.t ->
  (Ermes_tmg.Csr.result, Ermes_tmg.Csr.error) result ->
  t
(** From {!Ermes_tmg.Csr.solve} on the net [g] freezes: ratio, witness and
    potentials come from the solver, the liveness / acyclicity rank vectors
    from {!Ermes_tmg.Csr.live_ranks} / {!Ermes_tmg.Csr.topo_ranks} on [g] —
    no pointer-net traversal anywhere on the certification path. *)

val of_lawler :
  Tmg.t ->
  (Ratio.t * Tmg.place list * int array, Ermes_tmg.Lawler.error) result ->
  t
(** From {!Ermes_tmg.Lawler.certified}. A [Deadlock] outcome is completed
    with a token-free witness cycle from {!Ermes_tmg.Liveness}. *)

val of_karp_unit : Tmg.t -> (Ratio.t * Tmg.place list * int array) option -> t
(** From {!Ermes_tmg.Karp.of_unit_tmg_certified} on a unit-token net.
    [None] (acyclic graph) becomes {!Acyclic}. *)

val of_liveness : Tmg.t -> t
(** The liveness-only certificate: {!Deadlocked} with a token-free witness
    cycle on a dead net, {!Live} with the token-free-subgraph ranks
    otherwise — checkable proof of the deadlock verdict alone. *)
