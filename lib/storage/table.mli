(** A mutable stored relation with set semantics, named columns, and
    its rows kept in expiration order.

    The rows live in one {!Texp_run} keyed on a constant: column chunks
    globally sorted by [(texp, tuple)] plus sorted pending changes.  Hot
    readers (the batch scan, live counts, the forward expiration
    profile, the earliest expiration) cut the run at [tau] by binary
    search and count or skip the pending changes in O(log n).  A tuple
    → texp map ({!Row_map}, open addressing over flat arrays) keeps set
    semantics.  Each secondary index is the same
    rows in a second {!Texp_run} keyed on its column, every row with its
    texp, so an index read skips expired rows by that texp and never
    consults the table.

    The table itself is clock-free; the {!Database} drives expiration by
    calling {!expire_upto} (eager removal) or {!vacuum} (delayed physical
    removal under lazy policy) and reads logical states via {!snapshot},
    which always filters through [exp_tau] so expired-but-unvacuumed rows
    stay invisible (Section 3.2, citation [26]). *)

open Expirel_core

type t

val create : name:string -> columns:string list -> unit -> t
(** @raise Invalid_argument on an empty column list *)

val name : t -> string
val columns : t -> string list
val arity : t -> int

val column_position : t -> string -> int option
(** 1-based position of a column name. *)

val check_arity : t -> Tuple.t -> unit
(** @raise Invalid_argument when the tuple's arity is not the table's *)

val insert : t -> Tuple.t -> texp:Time.t -> unit
(** Set semantics: inserting an existing tuple overwrites its expiration
    time (the paper's update — "an expiration time may be assigned to a
    tuple" on insertion and update).  One write hashes the tuple once
    and probes the row map once, writing the slot it finds, then changes
    the run and each index by direct calls: a fresh row costs one
    {!Texp_run.add} per run (a lookup among the pending removals and a
    cons), an overwrite one {!Texp_run.remove} and one add per run,
    O(log n).  A write allocates no closure and no map node.
    @raise Invalid_argument on arity mismatch *)

val delete : t -> Tuple.t -> bool
(** Explicit deletion; [true] when the tuple was present.  One probe of
    the row map, then one {!Texp_run.remove} per run. *)

val texp_of : t -> Tuple.t -> Time.t option
val physical_count : t -> int
(** Rows physically present, including expired-but-unvacuumed ones. *)

val live_estimate : t -> tau:Time.t -> int
(** The number of rows live at [tau] (exact, despite the name: the
    planner's cardinality estimates use it, so a mostly-expired, lazily
    vacuumed table costs by its live rows, not its physical ones).
    O(log n): one cut of the run ({!Texp_run.count_upto}). *)

val expiring_within : t -> now:Time.t -> bounds:int array -> int array
(** The table's forward expiration profile: element [i] counts live
    rows whose expiration falls in [(now + bounds.(i-1), now + bounds.(i)]]
    (with an implicit lower edge of [now] for the first bucket).
    [bounds] must be ascending tick deltas; a [max_int] bound means
    [+Inf] and its bucket also holds never-expiring rows, so the array
    sums to the live count.  Never touches a row: each boundary is one
    cut of the run as in {!live_estimate} — O(buckets · log n). *)

val next_expiry : t -> Time.t option
(** The earliest finite expiration time among the physical rows
    (expired-but-unvacuumed ones included); [None] when every row is
    immortal or the table is empty.  O(log n) ({!Texp_run.min_texp}). *)

val live_texp_range : t -> tau:Time.t -> (Time.t * Time.t) option
(** The smallest and largest expiration time among the rows live at
    [tau], read from the ends of the run; [None] when no row is live. *)

val run : t -> Texp_run.t
(** The rows in [(texp, tuple)] order — what the batch executor scans.
    Callers read it and never mutate it. *)

val generation : t -> int
(** Monotone counter bumped on every physical row change (insert, delete,
    expiration) — the invalidation key for cached snapshots. *)

val fold_live : t -> tau:Time.t -> (Tuple.t -> Time.t -> 'a -> 'a) -> 'a -> 'a
(** Folds the rows live at [tau], through the run's full scan
    ({!Texp_run.scan_range} over unbounded bounds). *)

val snapshot : t -> tau:Time.t -> Relation.t
(** The logical state [exp_tau(R)], for the reference evaluator and
    the executor's answer to a bare unfiltered scan.  When every
    physical row is live at [tau] (nothing has expired since the last
    removal) it is the whole table, cached until the table changes;
    otherwise it is built from the run's live rows ({!fold_live}). *)

val expire_upto : t -> Time.t -> (Tuple.t * Time.t) list
(** Removes every row with [texp <= tau] and returns them in [(texp,
    tuple)] order — the eager policy's unit of work, and the source of
    expiration trigger events.  The run and the indexes reclaim them
    when their chunks are rewritten or have wholly expired
    ({!Texp_run.expire_upto}). *)

val vacuum : t -> tau:Time.t -> int
(** Physically removes rows with [texp <= tau] without materialising
    them; returns how many were reclaimed (lazy policy cleanup). *)

(** {2 Secondary indexes} *)

val create_index : t -> column:int -> unit
(** Builds (or rebuilds) a secondary index on the 1-based column: the
    rows in a {!Texp_run} keyed on it, maintained by every later change.
    Its reads are exact at [tau] no earlier than the last {!expire_upto},
    as the {!Database}'s clock guarantees.
    @raise Invalid_argument when the column is out of range *)

val drop_index : t -> column:int -> unit
val has_index : t -> column:int -> bool
val indexed_columns : t -> int list

val index : t -> column:int -> Texp_run.t
(** The index on the column; callers read it and never mutate it.
    @raise Not_found when no index covers the column *)
