(** Per-client incremental analysis sessions.

    An editor-style client re-analyzing a design after every edit should pay
    for the {e diff}, not a cold rebuild. A session binds a client-chosen
    name to a long-lived {!Ermes_core.Incremental} session; each re-analysis
    submits the {e full} new design text and the server diffs it against the
    held system:

    - identical structure (same processes, channels, endpoints, latencies
      and implementation sets, in declaration order) — the new selections,
      statement orders and channel kinds are {e absorbed} into the held
      system and the warm solver re-runs from the previous converged policy
      ([Warm]);
    - anything else — the session transparently rebuilds on the new design
      ([Rebuilt]); correctness is never conditional on the diff.

    Every analysis is certified ({!Ermes_core.Perf.certify} on the warm
    solve) — warm starts make no difference to the proof obligations.

    Concurrency: the table is mutex-guarded; each session additionally
    carries its own lock, so two requests touching the {e same} session
    serialize while different sessions proceed in parallel on different
    worker domains. Idle sessions are reaped after a TTL; each client is
    capped to a fixed number of live sessions. *)

module System = Ermes_slm.System
module Incremental = Ermes_core.Incremental

type table

val create_table : ?max_per_client:int -> ?ttl_s:float -> clock:(unit -> float) -> unit -> table
(** Defaults: 8 sessions per client, 900 s TTL. *)

type path =
  | Fresh  (** newly opened session: first (cold) certified solve *)
  | Warm  (** structure matched; edits absorbed, solver warm-started *)
  | Rebuilt  (** structure changed; TMG rebuilt inside the session *)

val path_name : path -> string

type outcome = {
  certified : Ermes_core.Perf.certified;
  path : path;
  delay_edits : int;  (** per-call delta of the session's edit counters *)
  rethreads : int;
  marking_edits : int;
  rebuilds : int;
}

val open_ : table -> client:string -> name:string -> System.t -> (outcome, string) result
(** Open (or replace) the named session on a validated system and run the
    initial certified analysis. [Error] when the client's session cap is
    reached. *)

val reanalyze : table -> client:string -> name:string -> System.t -> (outcome, string) result
(** Diff the new system against the held one and re-analyze warm. [Error]
    when no such session exists. *)

val close : table -> client:string -> name:string -> bool
(** [true] when the session existed. *)

val close_client : table -> client:string -> int
(** Close all of one client's sessions; returns how many. *)

val reap_idle : table -> now:float -> int
(** Drop sessions idle past the TTL (skipping any whose lock is currently
    held by a worker); returns how many were reaped. *)

val count : table -> int
