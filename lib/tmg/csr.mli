(** Flat CSR (compressed sparse row) analysis core.

    {!Tmg.t} is a pointer-rich labelled multigraph: records, closures and
    per-vertex arc {e lists}. Every hot solver loop over it chases pointers
    and allocates. This module freezes a net into unboxed [int array]s —
    transitions and places keep their dense ids ({!Tmg.transition} and
    {!Tmg.place} already {e are} dense ints, so the index mapping between the
    two representations is the identity) — and runs the analysis (Howard
    policy iteration, liveness/topological ranks, Tarjan SCC) as
    allocation-free loops over those arrays. Karp, Lawler and Liveness stay
    on the pointer net as independent cross-checks.

    {2 Index-mapping contract}

    [of_tmg] and [to_tmg] are O(V+E) and preserve ids, names, delays, tokens
    and endpoints exactly: transition [v] of the net is row [v] of the CSR
    arrays, place [p] is column [p]. Consumers that hold {!Tmg.place} /
    {!Tmg.transition} handles — {!Ermes_slm.To_tmg.mapping}, incremental
    sessions, certificates — therefore keep working unchanged against CSR
    results: a witness cycle returned here is a plain [Tmg.place list] whose
    ids are valid in the source net.

    {2 Determinism contract}

    {!solve} is the one Howard solver: every cycle time this toolkit reports
    comes from it. A cold solve ({!cycle_time}, or the first {!solve}) is a
    pure function of the net: the verdict, exact ratio, witness cycle,
    potentials and both iteration counters are the same on every run, and
    a golden test pins them on the paper's designs, a synthetic SoC and
    seeded random nets. A warm solve may report another, equally critical
    witness and take fewer rounds; the ratio and the verdict never
    differ. *)

type t = {
  n : int;  (** transition count *)
  m : int;  (** place count *)
  delay : int array;  (** per transition: firing delay *)
  weight : int array;
      (** per place: cached [delay.(dst.(p))] — the arc weight used by every
          cycle-ratio solver (each cycle transition counted once) *)
  tokens : int array;  (** per place: initial marking *)
  src : int array;  (** per place: producer transition *)
  dst : int array;  (** per place: consumer transition *)
  out_row : int array;
      (** length [n+1]: out-places of transition [v] are
          [out_adj.(out_row.(v)) .. out_adj.(out_row.(v+1) - 1)] *)
  out_adj : int array;  (** place ids, ascending within each row *)
  in_row : int array;  (** length [n+1]: same, for in-places *)
  in_adj : int array;  (** place ids, ascending within each row *)
  tname : string array;  (** per transition *)
  pname : string array;  (** per place *)
}

val of_tmg : Tmg.t -> t
(** O(V+E) freeze. Ids are preserved (identity mapping). *)

val to_tmg : t -> Tmg.t
(** O(V+E) thaw: rebuilds a net with identical ids, names, delays, endpoints
    and marking. [to_tmg (of_tmg tmg)] is indistinguishable from [tmg]
    through every {!Tmg} accessor. *)

type components = {
  comp : int array;
      (** component id per transition, numbered in reverse topological order
          exactly like {!Ermes_digraph.Scc.compute} on a freshly built net *)
  comp_count : int;
}

val strongly_connected : t -> components
(** Iterative Tarjan over the CSR adjacency: explicit int-array stacks, no
    recursion, no per-vertex allocation — a path graph of 10^6 vertices uses
    O(1) OCaml stack. *)

val live_ranks : t -> (int array, Liveness.dead_cycle) result
(** Liveness by topological ranks of the token-free subgraph, mirroring
    {!Liveness.live_ranks} bit for bit: [Ok ranks] satisfies
    [ranks.(src p) < ranks.(dst p)] for every token-free place [p];
    [Error] carries the same witness cycle the pointer path reports. *)

val topo_ranks : t -> (int array, Liveness.dead_cycle) result
(** Topological ranks over {e all} places (the whole net): the [Acyclic]
    certificate's rank vector. [Error] carries some cycle of the net (its
    places need not be token-free — this is a cyclicity witness, not a
    deadlock witness). *)

(** {2 Howard solver}

    Cycle-time analysis (paper §3). The cycle time of a TMG is its
    {e maximum cycle ratio} over all directed cycles [C] of
    [delay(C) / tokens(C)]; its reciprocal is the steady-state throughput,
    and a cycle attaining it is a {e critical cycle}. Howard's policy
    iteration (Cochet-Terrasson et al., 1998) runs per strongly connected
    component in floating point; the candidate ratio [p/q] is then
    {e certified exactly} by searching for a cycle of positive reduced cost
    [q*delay - p*tokens]. Any such cycle has a strictly larger ratio and
    replaces the candidate, so the returned value is the exact maximum
    regardless of floating-point behaviour. *)

type result = {
  cycle_time : Ratio.t;  (** max over cycles of (sum of delays / sum of tokens) *)
  critical_places : Tmg.place list;
      (** one critical cycle, as its places in arc order *)
  critical_transitions : Tmg.transition list;
      (** the same cycle, as the consumer transition of each place *)
  potentials : int array;
      (** per-transition optimality witness at [cycle_time] = p/q: for
          {e every} place from [u] to [v],
          [potentials.(v) >= potentials.(u) + q*delay(v) - p*tokens], so no
          directed cycle has ratio above p/q. Together with
          [critical_places] (which attains p/q exactly) this is a complete,
          independently checkable certificate — see [Ermes_verify.Verify]. *)
  howard_iterations : int;  (** policy-improvement rounds (all components) *)
  cancel_iterations : int;
      (** exact-verification rounds that improved the candidate (0 when the
          policy iteration already converged to the optimum) *)
}

type error =
  | Deadlock of Liveness.dead_cycle
      (** a token-free cycle exists: the cycle time is unbounded *)
  | No_cycle  (** the graph is acyclic: no steady-state constraint *)

type solver
(** A reusable analysis context bound to one {!Tmg.t}. It holds the source
    net and re-syncs the frozen arrays against it on each {!solve}: delay
    edits ({!Tmg.set_delay}) are absorbed for free, token edits invalidate
    the cached liveness verdict, endpoint rewires ({!Tmg.rewire_place})
    rebuild the adjacency and the SCC decomposition, and count changes
    re-freeze. Policy and certification potentials warm-start across
    solves. All per-solve scratch is preallocated: the policy-iteration,
    potential propagation and positive-cycle-cancellation inner loops
    allocate nothing but the final result.

    Warm-starting affects only the number of policy-improvement rounds and
    possibly {e which} of several equally critical cycles is reported; the
    returned cycle time is exact regardless. *)

val make_solver : Tmg.t -> solver
(** Freeze [tmg] and preallocate all solver scratch. Registers the
    [csr.*] observability counters. *)

val solve : solver -> (result, error) Stdlib.result
(** Exact maximum cycle ratio with certificate ingredients (witness places,
    integer potentials), warm-started from the previous call. Later calls
    return the same verdicts and the same exact cycle time a fresh analysis
    would. Works on arbitrary (not necessarily strongly connected) nets by
    taking the worst component. The result's [potentials] array is a fresh
    copy. *)

val cycle_time : Tmg.t -> (result, error) Stdlib.result
(** [solve (make_solver tmg)] — one-shot cold analysis. *)
