(** A writer-preferring readers–writer lock.

    Guards a {!Database} (or any shared structure) so that concurrent
    snapshot reads proceed in parallel while clock advances and updates
    serialise: any number of readers may hold the lock together, a
    writer holds it alone, and once a writer is waiting in
    {!write_lock} no {e new} readers are admitted — so a steady stream
    of readers cannot starve it.  {!try_write_lock} never counts as
    waiting: a writer that polls it (the server's per-request deadline
    on wire requests) gets no preference, and overlapping readers can
    hold it off indefinitely.

    Built on stdlib [Mutex] + [Condition] only; safe under both systhreads
    and domains. *)

type t

val create : unit -> t

val read_lock : t -> unit
(** Blocks while a writer holds the lock or writers are waiting. *)

val read_unlock : t -> unit

val write_lock : t -> unit
(** Blocks until exclusive. *)

val write_unlock : t -> unit

val try_read_lock : t -> bool
(** Non-blocking acquire; [false] when a writer holds or awaits the
    lock.  Lets callers implement acquisition deadlines (the server's
    per-request timeout) by polling. *)

val try_write_lock : t -> bool

val with_read : t -> (unit -> 'a) -> 'a
(** Runs the thunk under the read lock, releasing on any exit. *)

val with_write : t -> (unit -> 'a) -> 'a

val readers : t -> int
(** Instantaneous number of read holders (observability only). *)
