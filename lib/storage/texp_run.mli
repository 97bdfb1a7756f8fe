(** A table's rows in expiration order: the storage layout of
    {!Table}.

    The run is a sequence of immutable column chunks of at most
    {!chunk_rows} rows, globally sorted by [(texp, tuple)], plus one
    sorted insert buffer of at most {!chunk_rows} rows.  Inserts go to
    the buffer; when it fills it is folded into only the chunks its key
    range overlaps.  Removing a chunked row copies the one chunk that
    holds it; expiring up to [tau] drops a prefix and yields the rows
    already in [(texp, tuple)] order (the eager and lazy removal of
    Section 3.2).  "What is live at [tau]" is a binary-search cut, so
    counts and forward profiles never scan rows.

    Keys are unique: callers (the table's tuple → texp map) guarantee
    that a tuple is held at most once and remove it with the texp it was
    added with. *)

open Expirel_core

(** {2 Chunks} *)

type chunk
(** At most {!chunk_rows} rows, ascending by [(texp, tuple)], in
    column-major layout with a parallel expiration-time array.
    Immutable: readers may keep a chunk past later writes. *)

val chunk_rows : int
(** The chunk and buffer bound. *)

val chunk_len : chunk -> int

val chunk_col : chunk -> int -> Value.t array
(** [chunk_col c j] is column [j] (1-based), [chunk_len c] values long.
    Callers must not mutate it. *)

val chunk_texps : chunk -> Time.t array
(** The parallel expiration times, ascending. *)

val live_cut : Time.t array -> tau:Time.t -> int -> int -> int
(** [live_cut texps ~tau lo hi] is the first index in [[lo, hi)] whose
    time is strictly after [tau] ([hi] when none) — the binary-search
    cut over an ascending expiration order. *)

(** {2 The run} *)

type t

val create : arity:int -> t

val length : t -> int
(** Rows held, expired-but-unremoved ones included. *)

val add : t -> Tuple.t -> Time.t -> unit
(** Buffers a row whose [(texp, tuple)] key is not held; folds the
    buffer into the chunks when it reaches {!chunk_rows}. *)

val remove : t -> Tuple.t -> Time.t -> unit
(** Removes the row held under this key (no-op when absent). *)

val expire_upto : t -> Time.t -> (Tuple.t * Time.t) list
(** Removes every row with [texp <= tau] and returns them in
    [(texp, tuple)] order. *)

(** {2 Readers} *)

val sorted_chunks : t -> chunk array
(** The chunks, globally ascending by [(texp, tuple)]; the buffered rows
    are not among them. *)

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
(** Rows with [texp <= tau]: a binary search over the chunk-boundary
    texps, one inside the chunk it lands in and one inside the buffer —
    O(log n), plus the buffer's O(chunk_rows) layout ({!buffer}) on the
    first read after a write. *)

val min_texp : t -> Time.t option
(** The smallest expiration time held; [None] when empty.  O(log
    chunk_rows). *)

val max_texp : t -> Time.t option

val min_live_texp : t -> tau:Time.t -> Time.t option
(** The smallest expiration time strictly after [tau]; [None] when no
    row is live at [tau]. *)
