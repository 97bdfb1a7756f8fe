(** A bounded ring of finished traces.

    The server parks every completed request trace here (newest
    overwrite oldest) so that [TRACE n] / [expirel_cli trace] can
    retrieve recent request trees after the fact, [SLOW n] can rank
    them by duration, and so that traces
    from several nodes — each stamping its own [node] name — can be
    merged by trace id into one cross-node timeline
    ({!Trace_export.to_json}).  Thread-safe.

    Each ring slot is one {!Flat} byte buffer, allocated the first time
    the slot is written (1 KiB, or a stored trace's size when larger)
    and rewritten in place by every later trace that lands there: a
    stored trace is copied bytes — its ids, names, times and labels,
    its trace id, node and statement text — not a list of records the
    major heap must keep.  The readers rebuild {!entry} records from
    those bytes. *)

type entry = {
  node : string;  (** the recording node's name, e.g. ["primary"] *)
  trace_id : string;
  name : string;  (** what the trace covered, e.g. the statement text *)
  started_at : float;  (** [Trace.started_at]: absolute origin, s *)
  total_us : int;
  spans : Trace.span list;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) most-recent traces are retained.
    @raise Invalid_argument when [capacity <= 0] *)

val record : t -> entry -> unit
(** Copies an entry into the ring (its span names and label keys are
    interned, see {!Trace.name}). *)

val finish : t -> node:string -> name:string -> Trace.t -> unit
(** Copies a completed trace into the ring, its total the trace's
    {!Trace.elapsed_us} now. *)

val recent : t -> int -> entry list
(** [recent t n]: up to [n] most recently recorded entries, newest
    first. *)

val slowest : t -> int -> entry list
(** [slowest t n]: up to [n] retained statement traces, slowest first,
    newest first on ties — the SLOW request's answer.  A [replicate …]
    session's trace is not a statement and is skipped. *)

val by_trace_id : t -> string -> entry list
(** All retained entries sharing a trace id, newest first. *)
