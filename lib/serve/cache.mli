(** Warm-result cache keyed by design hash.

    The cache key is the MD5 digest of the {e canonical} design text — the
    [Soc_format.print] of the parsed system — so two texts differing only in
    whitespace, comments or formatting share an entry, while any change to a
    latency, selection, order or channel kind produces a new key (see
    DESIGN.md §12 for the exact definition).

    Each entry may also carry one {e raw alias}: the [Digest] of the exact
    bytes a request arrived as. A re-sent design is then found by
    {!find_raw} before it is parsed, validated or reprinted. This is sound
    because raw text → canonical key is a pure function (parsing,
    validation and printing are deterministic, and the parser's size limits
    come from the environment, which the daemon never changes), so an alias
    can never name the wrong entry. Aliases live in their own table, so a raw digest can never
    be mistaken for a canonical key. An entry holds at most one alias (the
    byte form that reached it last) and the alias is evicted with its
    entry, so the alias table is bounded by the capacity too.

    Entries store the finished reply fragment of a certified analysis
    together with its certificate description and the independent checker's
    verdict, so a warm answer remains self-auditing: the client sees the
    same certificate fields whether the answer was computed or replayed.
    Entries are immutable; eviction is least-recently-used at a fixed
    capacity. All operations are mutex-guarded — any worker domain may
    consult or fill the cache. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val key_of_canonical : string -> string
(** MD5 hex digest of the canonical design text. *)

val find_raw : 'a t -> Digest.t -> (string * 'a) option
(** [find_raw t raw] looks up the entry aliased by [raw], the digest of a
    request's exact bytes, and returns its canonical key with the value. A
    hit bumps recency and the hit counter; a miss moves no counter, since
    the request then takes the canonical path, whose {!find} counts it. *)

val find : 'a t -> ?raw:Digest.t -> string -> 'a option
(** Lookup by canonical key; bumps recency and the hit counter on success,
    the miss counter otherwise. On a hit, [raw] becomes the entry's alias. *)

val add : 'a t -> ?raw:Digest.t -> string -> 'a -> unit
(** Insert (or refresh) an entry, evicting the least recently used one
    (and its alias) when full. [raw] becomes the entry's alias; it must be
    the digest of a text whose canonical key is [key]. *)

type stats = {
  size : int;
  aliases : int;  (** raw aliases held; never more than [size] *)
  capacity : int;
  hits : int;  (** both kinds of hit *)
  raw_hits : int;  (** hits found by {!find_raw} *)
  misses : int;
  evictions : int;
}

val stats : 'a t -> stats

val reset : 'a t -> unit
(** Drop all entries and zero the counters (a fresh daemon start in tests). *)
