(** Rows in expiration order: the storage layout of a {!Table}'s rows
    and of its secondary indexes.

    The run is immutable column chunks of at most {!chunk_rows} rows,
    globally sorted, plus sorted pending changes that, when they reach
    their bound, are merged into only the chunks their keys fall into.  An
    unkeyed run (a table's rows) is sorted by [(texp, tuple)]: a removal
    copies its chunk at once, expiring up to [tau] drops a prefix (the
    eager and lazy removal of Section 3.2), and "what is live at [tau]"
    is a binary-search cut.  A run keyed on column [j] (an index) is
    sorted by [(t.j, texp, tuple)], so one key's live rows are a cut; it
    defers removals to the next fold (readers skip them), and skips its
    expired rows by texp until their chunk is rewritten or has wholly
    expired ({!forget_upto}), so a tick costs an index nothing.

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
(** The chunk bound, and an unkeyed run's buffer bound (a keyed run's
    pending changes may reach a quarter of its rows). *)

val chunk_len : chunk -> int

val chunk_col : chunk -> int -> Value.t array
(** [chunk_col c j] is column [j] (1-based), [chunk_len c] values long.
    Callers must not mutate it. *)

val chunk_texps : chunk -> Time.t array
(** The parallel expiration times (ascending in an unkeyed run). *)

val live_cut : Time.t array -> tau:Time.t -> int -> int -> int
(** [live_cut texps ~tau lo hi] is the first index in [[lo, hi)] whose
    time is strictly after [tau] ([hi] when none) — the binary-search
    cut over an ascending expiration order. *)

(** {2 The run} *)

type t

val create : ?key:int -> arity:int -> (Tuple.t * Time.t) list -> t
(** A run holding these rows, keyed on the 1-based column [key] when
    given. *)

val length : t -> int
(** Rows held, expired-but-unremoved ones included. *)

val add : t -> Tuple.t -> Time.t -> unit
(** Buffers a row whose key is not held; folds the pending changes into
    the chunks when they reach their bound. *)

val remove : t -> Tuple.t -> Time.t -> unit
(** Removes the row held under this key (no-op when absent). *)

val expire_upto : t -> Time.t -> (Tuple.t * Time.t) list
(** Unkeyed runs: removes every row with [texp <= tau] and returns them
    in [(texp, tuple)] order. *)

val forget_upto : t -> Time.t -> unit
(** Keyed runs: the rows with [texp <= tau] have left the table; they go
    when their chunk is rewritten or has wholly expired. *)

(** {2 Unkeyed readers} *)

val sorted_chunks : t -> chunk array
(** The chunks, globally ascending; the buffered rows are not in them. *)

val buffer : t -> chunk
(** The buffered rows as a chunk (possibly empty), built on first read
    after a write. *)

val iter_chunks : (chunk -> unit) -> t -> unit
(** Every row, chunk by chunk: the sorted chunks, then the buffer when
    non-empty.  Each chunk is ascending; the buffer is not ordered
    relative to the sorted chunks. *)

val fold_live : t -> tau:Time.t -> (Tuple.t -> Time.t -> 'a -> 'a) -> 'a -> 'a
(** Folds the rows with [texp > tau]; each chunk's expired prefix is
    skipped by binary search. *)

val count_upto : t -> Time.t -> int
(** Rows with [texp <= tau]: O(log n) binary searches, plus the buffer's
    O(chunk_rows) layout ({!buffer}) on the first read after a write. *)

val min_texp : t -> Time.t option
(** The smallest expiration time held; [None] when empty.  O(log
    chunk_rows). *)

val max_texp : t -> Time.t option

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
    reclaimed: O(log n), allocating nothing.  The pending changes'
    tree counts its subtrees, so they are counted without a walk. *)

val scan_range :
  t -> tau:Time.t -> lo:bound -> hi:bound -> visited:int ref ->
  dropped:int ref -> (chunk -> int array option -> unit) -> unit
(** [f c sel] for each chunk holding rows in the bounds live at [tau]
    ([sel] their ascending ids, [None] for all of [c]), in key order,
    then the buffer's.  The first chunk is found by binary search, a
    wholly expired chunk is skipped unread, and one key's live rows are
    a cut.  [visited] counts the rows examined, [dropped] the rows in
    the bounds expired at [tau] (a pending removal is neither returned
    nor dropped). *)
