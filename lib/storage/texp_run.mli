(** Rows in expiration order: the storage layout of a {!Table}'s rows
    and of its secondary indexes.

    The run is immutable column chunks of at most {!chunk_rows} rows,
    globally sorted, plus pending adds and removals that fold into only
    the chunks their keys fall into once they reach a quarter of the
    run, so each change costs a constant number of row copies,
    amortised, in any arrival order.

    The pending adds and the pending removals are each one set of the
    same form: immutable sorted key arrays in levels, each at most half
    the size of the next, and a write buffer of at most {!chunk_rows}
    keys kept sorted in place.  A write binary-searches the buffer and
    shifts its tail (a memmove while the buffer is young in the minor
    heap); a full buffer becomes the smallest level, and equal levels
    merge, so a key is copied O(log n) times before its fold.  A fold merges each set's levels
    once and writes each merged chunk straight into arrays of at most
    {!chunk_rows} slots: O(rows rewritten + pending · levels).

    A key is held at most once among the pending adds and at most once
    among the pending removals.  An {!add} cancels a pending removal of
    its key wherever it sits, in the buffer or in a level (rebuilding
    that level).  A {!remove} of a pending add in the buffer drops it;
    of one in a level, it records a pending removal that the readers
    and the fold net against the add.  Rebuilding the level instead
    would copy O(pending) keys per removal: on [bench -- access] it put
    an overwrite at 10⁵ rows at 35.9 µs against 15.5 for the netted
    removal.

    Readers store nothing: each is a binary search or cut of the chunks,
    of the buffer and of each level, O(levels · log n).  The buffer is
    the one array a writer mutates in place; writers run under the
    table's write lock.

    A run keyed on column [j] (an index) is sorted by
    [(t.j, texp, tuple)], so one key's live rows are a cut.  A table's
    own run is keyed on a constant: it is sorted by [(texp, tuple)], so
    "what is live at [tau]" is one cut (Section 3.2's eager and lazy
    removal).  Every run skips its expired rows by texp until their
    chunk is rewritten or has wholly expired ({!forget_upto},
    {!expire_upto}), so a tick copies no row.

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
    same key is cancelled, else the key joins the write buffer.  A
    search of the buffer and of each level, O(levels · log n), plus a
    level's rebuild when the cancelled removal sits in one. *)

val remove : t -> Tuple.t -> Time.t -> unit
(** Removes the row held under this key: a pending add of it in the
    buffer is dropped, else the key joins the pending removals' buffer,
    O(log n) plus a merge when the buffer fills. *)

val expire_upto : t -> Time.t -> (Tuple.t * Time.t) list
(** A table's own run: the rows with [texp <= tau] leave ({!forget_upto})
    and are returned in [(texp, tuple)] order.  Reads the chunks by two
    cuts and the pending changes by two cuts of the buffer and of each
    level, O(levels · log n + due · levels), and copies no chunk. *)

val forget_upto : t -> Time.t -> unit
(** The rows with [texp <= tau] have left the table: readers skip them,
    and they go when their chunk is rewritten or has wholly expired. *)

(** {2 Readers of a table's own run}  Rows that left ({!forget_upto})
    are not counted, and pending changes are counted or skipped. *)

val count_upto : t -> Time.t -> int
(** Rows with [texp <= tau]: two cuts of the chunks and a cut of the
    buffer and of each level of the pending changes, O(levels · log n),
    allocating nothing. *)

val min_texp : t -> Time.t option
(** The smallest expiration time held; [None] when empty.
    O(levels · log n): a cut of the chunks and of the buffer and each
    level of the pending adds, and a search of the pending removals for
    the row found; O(levels² · log² n) when a pending removal names it. *)

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
    the ends of the buffer and of each level of the pending adds. *)

val count_range : t -> lo:bound -> hi:bound -> int
(** Rows whose key falls in the bounds, expired ones included until
    reclaimed: two cuts of the chunks, of the buffer and of each level,
    O(levels · log n), allocating nothing. *)

val scan_range :
  t -> tau:Time.t -> lo:bound -> hi:bound -> visited:int ref ->
  dropped:int ref -> (chunk -> int array option -> unit) -> unit
(** [f c sel] for each chunk holding rows in the bounds live at [tau]
    ([sel] their ascending ids, [None] for all of [c]), in key order,
    then the pending adds'.  The first chunk is found by binary search,
    a wholly expired chunk is skipped unread, and one key's live rows
    are a cut: a chunk a table's full scan reaches, when no pending
    removal falls in its cut, passes zero-copy.  The pending removals
    in the bounds are merged once and passed in step with the chunks;
    the pending adds in the bounds are one ascending merge of the
    buffer's and each level's slice, less those removals, laid out in
    chunks of at most {!chunk_rows} on every scan (O(pending in bounds
    · levels)).  [visited] counts the rows examined, [dropped] the rows
    in the bounds expired at [tau] (a pending removal is neither
    returned nor dropped). *)
