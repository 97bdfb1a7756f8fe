(** A durable expiring database: {!Database} plus write-ahead logging
    and snapshot checkpoints in a directory — and the shipping source
    for replication.

    {2 One write}

    Every change to the data is one {!Wal.record} passed to {!write},
    which validates it ({!Database.validate}), appends it to the log
    (flushed), then applies it ({!Database.apply}), in that order.  A
    refused record raises before anything is logged; a logged one
    reaches the log before the state changes, so a crash of the process
    loses at most the write in flight.  The log is never fsynced, on
    purpose (a disk flush would price every write): a power loss may
    lose what the OS had not written back.  Only {!checkpoint} and
    {!reset_to} change anything else.

    {2 Files}

    [dir/snapshot.log] holds the state as of the last checkpoint, its
    header the position of that state; [dir/wal.log] the records since.
    {!open_dir} replays snapshot then log, skipping records the state
    refuses, and cuts the log's torn tail off before appending.
    {!checkpoint} writes only the {e live} state, so it doubles as
    compaction (the paper's "smaller databases" benefit falls out of
    expiration).

    {2 Log positions and shipping}

    Every logged record gets a {e position}: the count of records ever
    appended since the directory was created.  Positions are monotone
    and survive both checkpoints (in the snapshot's header) and reopens
    (a crash after a checkpoint's snapshot, before its log is emptied,
    included),
    which makes them usable as replication cursors: a follower that has
    applied the stream up to position [p] can resume with exactly the
    records after [p].  {!ship_from} serves that resumption from an
    in-memory tail of the most recent records, which is retained
    {e across} checkpoints (up to [retention] records) precisely so a
    checkpoint on the primary does not strand a briefly-disconnected
    follower; only a follower further behind than the retained tail is
    told to bootstrap from a fresh snapshot of the live state. *)

open Expirel_core

type t

val open_dir :
  ?policy:Database.policy ->
  ?retention:int ->
  string ->
  t
(** Opens (creating if empty) the database stored in the directory.
    [retention] (default 4096) bounds the in-memory record tail kept for
    {!ship_from}.
    @raise Sys_error when the directory does not exist
    @raise Failure when the directory holds a [meta] file or a log
    without a header: the text format's, refused and left untouched *)

val database : t -> Database.t
(** The live in-memory database.  Change it only through {!write}, or
    durability is lost. *)

val now : t -> Time.t

val write : t -> Wal.record -> unit
(** Validates, logs (flushed), then applies one record.
    @raise Errors.Unknown_relation / [Invalid_argument] when
    {!Database.validate} refuses it; log and state are then
    untouched. *)

val checkpoint : t -> int
(** Rewrites the snapshot from the live (unexpired) state and truncates
    the log; returns the number of records in the new snapshot.  The
    snapshot is written to a temporary file and renamed, so a crash
    during checkpointing leaves the previous snapshot + log intact.
    {!position} is unaffected and the retained tail survives, so
    followers within [retention] records keep streaming. *)

val close : t -> unit
(** Flushes and closes the log (the state remains usable in memory). *)

val wal_records : t -> int
(** Records appended to the log since open/last checkpoint. *)

(** {1 Positions and replication} *)

val position : t -> int
(** Records ever logged to this directory (monotone across checkpoints
    and reopens): the head of the replication stream. *)

val snapshot_position : t -> int
(** The position [dir/snapshot.log] corresponds to; records at positions
    beyond it live in [dir/wal.log]. *)

val state_records : t -> Wal.record list
(** The live (unexpired) state as a replayable record list — an
    [Advance] to the current clock, then per table a [Create_table] and
    its live [Insert]s.  Exactly what {!checkpoint} writes; replaying it
    on a fresh database reproduces the current state. *)

type shipment =
  | Records of Wal.record list
      (** the records after the requested position, possibly empty *)
  | Snapshot of {
      position : int;
      records : Wal.record list;
    }
      (** the requested position predates the retained tail: bootstrap
          from this full state (at [position]) instead *)

val ship_from : t -> int -> (shipment, string) result
(** [ship_from t p] is what a follower holding position [p] needs next.
    [Error] when [p] is negative or beyond {!position} (such a follower
    is ahead of this log — it followed a different history). *)

val reset_to : t -> position:int -> Wal.record list -> unit
(** Replaces directory and database state wholesale with the given
    state-as-records at the given position: the follower side of a
    {!shipment} [Snapshot].  The log is emptied, the records are
    written as the new snapshot, and the in-memory database is rebuilt
    (tables dropped, records replayed), so a failure part-way leaves one
    history on disk, never the old log on the new snapshot.  The logical
    clock never moves backwards: a snapshot from the past leaves it
    where it is. *)
