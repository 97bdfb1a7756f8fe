(** Rows in expiration order: the storage layout of a {!Table}'s rows
    and of its secondary indexes.

    The run is immutable column chunks of at most {!chunk_rows} rows,
    globally sorted, plus pending adds and removals that fold into only
    the chunks their keys fall into once they reach a quarter of the
    run, so each change costs a constant number of row copies,
    amortised, in any arrival order.

    A pending add is a key appended to an unsorted batch: an {!add}
    costs one lookup among the pending removals (a re-added row cancels
    its own) and a cons, and allocates no tree node.  The first reader
    or {!remove} after a burst settles the batch into the sorted pending
    set: one O(log n) insertion per key while the batch is short against
    the set, else one sort of the batch merged with the set in one pass.
    Readers that settle concurrently under a shared lock store equal
    values.  A fold sorts the batch once and writes each merged chunk
    straight into arrays of at most {!chunk_rows} slots, sized from the
    chunk, its share of the changes and its dead rows: O(rows rewritten
    + the sort).

    The batch sort (and {!create}'s) ranks each key by an int prefix
    that is monotone in the run's order: a texp in a table's own run
    ([Inf] as [max_int]); in an index, an [Int] key's value, with [Null]
    and [Bool] as [min_int] and [Float] and [Str] as [max_int].  An LSD
    radix sort, one pass per byte up to the highest nonzero byte of the
    prefixes less their least, orders the keys' indices in O(k) a pass
    and four int arrays of k; only keys of equal prefix are then
    compared in full (by insertion when at most 8, else a merge sort),
    so a batch of scattered texps or integer keys costs O(k) per pass
    and one of strings O(k log k).

    A run keyed on column [j] (an index) is sorted by
    [(t.j, texp, tuple)], so one key's live rows are a cut.  A table's own run is keyed on a constant: it is sorted by
    [(texp, tuple)], so "what is live at [tau]" is one cut (Section
    3.2's eager and lazy removal).  Every run skips its expired rows by
    texp until their chunk is rewritten or has wholly expired
    ({!forget_upto}, {!expire_upto}), so a tick copies no row.

    Keys are unique: callers (the table's tuple → texp map) guarantee
    that a tuple is held at most once and remove it with the texp it was
    added with. *)

open Expirel_core

(** {2 Chunks} *)

type chunk
(** At most {!chunk_rows} rows, ascending in the run's order, in
    column-major layout with a parallel expiration-time array.
    Immutable: readers may keep a chunk past later writes. *)

val chunk_rows : int
(** The chunk bound, and the least fold bound: pending changes fold when
    they reach [max chunk_rows (length / 4)]. *)

val chunk_len : chunk -> int

val chunk_col : chunk -> int -> Value.t array
(** [chunk_col c j] is column [j] (1-based), [chunk_len c] values long.
    Callers must not mutate it. *)

val chunk_texps : chunk -> Time.t array
(** The parallel expiration times (ascending in a table's own run). *)

(** {2 The run} *)

type t

val create : ?key:int -> arity:int -> (Tuple.t * Time.t) list -> t
(** A run holding these rows, keyed on the 1-based column [key] when
    given, on a constant otherwise (a table's own run). *)

val length : t -> int
(** Rows held, expired-but-unreclaimed ones included. *)

val pending : t -> int
(** Pending adds and removals not yet folded: under [max chunk_rows
    (length / 4)] after each {!add}, {!remove}, {!forget_upto} and
    {!expire_upto} (an expiration that drops whole chunks shrinks the
    run, and folds when that leaves its pending changes over the
    bound). *)

val add : t -> Tuple.t -> Time.t -> unit
(** Adds a row whose key is not held, with [texp] after every [tau]
    the run has expired or forgotten up to: a pending removal of the
    same key is cancelled, else the key joins the unsorted batch. *)

val remove : t -> Tuple.t -> Time.t -> unit
(** Removes the row held under this key: it settles the batch first,
    then drops a pending add or records a pending removal, O(log n). *)

val expire_upto : t -> Time.t -> (Tuple.t * Time.t) list
(** A table's own run: the rows with [texp <= tau] leave ({!forget_upto})
    and are returned in [(texp, tuple)] order.  Reads the chunks by two
    cuts and the pending adds by a seek, O(log n + due), and copies no
    chunk. *)

val forget_upto : t -> Time.t -> unit
(** The rows with [texp <= tau] have left the table: readers skip them,
    and they go when their chunk is rewritten or has wholly expired. *)

(** {2 Readers of a table's own run}  Rows that left ({!forget_upto})
    are not counted, and pending changes are counted or skipped. *)

val count_upto : t -> Time.t -> int
(** Rows with [texp <= tau]: two cuts of the chunks and counts of the
    pending changes, O(log n). *)

val min_texp : t -> Time.t option
(** The smallest expiration time held; [None] when empty.  O(log n): a
    cut and a descent of each pending set, or O(log² n) when pending
    removals name the row at the cut. *)

val max_texp : t -> Time.t option
(** The largest, at the same cost. *)

val min_live_texp : t -> tau:Time.t -> Time.t option
(** The smallest expiration time strictly after [tau]; [None] when no
    row is live at [tau]. *)

(** {2 Keyed readers} *)

type bound =
  | Unbounded
  | Inclusive of Value.t
  | Exclusive of Value.t
(** A key bound, in {!Value.compare}'s total order (which agrees with
    {!Value.cmp} on same-type numeric and string values). *)

val key_extrema : t -> (Value.t * Value.t) option
(** The smallest and largest key held, expired and removed rows
    possibly included: the first and last chunked rows compared with
    the least and greatest pending additions. *)

val count_range : t -> lo:bound -> hi:bound -> int
(** Rows whose key falls in the bounds, expired ones included until
    reclaimed: O(log n), allocating nothing once the batch is settled.
    The pending changes' tree counts its subtrees, so they are counted
    without a walk. *)

val scan_range :
  t -> tau:Time.t -> lo:bound -> hi:bound -> visited:int ref ->
  dropped:int ref -> (chunk -> int array option -> unit) -> unit
(** [f c sel] for each chunk holding rows in the bounds live at [tau]
    ([sel] their ascending ids, [None] for all of [c]), in key order,
    then the pending adds'.  The first chunk is found by binary search,
    a wholly expired chunk is skipped unread, and one key's live rows
    are a cut: a chunk a table's full scan reaches, when no pending
    removal falls in its cut, passes zero-copy.  Unbounded bounds (a
    full scan) read the pending adds laid out as chunks, once per
    change of them; other bounds seek them.  [visited] counts the rows
    examined, [dropped] the rows in the bounds expired at [tau] (a
    pending removal is neither returned nor dropped). *)
