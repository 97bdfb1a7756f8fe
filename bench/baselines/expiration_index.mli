(** Unified expiration index: tracks [(id, texp)] registrations and
    reports the ids whose expiration time has passed, supporting the
    eager and lazy removal policies of Section 3.2.

    The baselines of citation [24] that [bench -- index] compares with
    [Texp_run], the structure storage uses.  Three
    interchangeable backends:
    - [`Scan]: no auxiliary structure; expiration scans all live entries
      — the baseline a system without expiration support would use;
    - [`Heap]: a binary min-heap with lazy deletion;
    - [`Wheel]: a hierarchical timing wheel with lazy deletion.

    Entries with expiration time [Time.Inf] never expire.  Re-registering
    an id overwrites its expiration time; stale backend entries are
    discarded lazily.  A tuple is expired at [tau] when [texp <= tau]
    (it is absent from [exp_tau]). *)

open Expirel_core

type backend =
  [ `Scan
  | `Heap
  | `Wheel
  ]

type t

val create : ?start:int -> backend -> t
(** [start] (default 0) is the initial clock for the wheel backend. *)

val backend : t -> backend
val size : t -> int
(** Live (unexpired, unremoved) registrations. *)

val add : t -> id:int -> texp:Time.t -> unit
val remove : t -> id:int -> unit
val expire_upto : t -> Time.t -> (int * Time.t) list
(** [expire_upto idx tau] removes and returns every live [(id, texp)]
    with [texp <= tau], sorted by [(texp, id)].
    @raise Invalid_argument when the wheel backend is driven backwards *)

val next_expiry : t -> Time.t option
(** Earliest live finite expiration time, if any.  O(n) for [`Scan] and
    [`Wheel]; O(pops) for [`Heap]. *)
