(** Per-request trace spans.

    A trace is created when a request arrives and threaded (as a
    [t option]) down the query path; each stage wraps its work in
    {!span}.  Spans record wall-clock offsets relative to the trace's
    creation, in microseconds, so a recorded trace is self-contained —
    it can be shipped over the wire or parked in a {!Trace_store}
    without reference to absolute time.

    Every trace carries a {e trace id}: an opaque string minted by the
    node that created it, or inherited from a remote caller via
    [?trace_id] so that a request fanning out over the wire (client →
    primary → replica) yields spans on every node sharing one id.  Each
    span additionally records its own id (unique within the trace) and
    the id of the span that encloses it, so exporters can rebuild the
    tree and compute self-time (duration minus direct children) instead
    of double-counting nested work.

    Recording is flat: a span is a few ints appended to the trace's one
    int array, under an interned {!name}, and a counter label is a key
    and an int.  Nothing per span is allocated; the {!span} records
    below are built only when something reads the trace ({!spans},
    {!Trace_store}'s readers).  The clock is read once per event: a
    span's open and its close read it once each, except that a span
    opened right after {!create} or right after another span's close,
    with no event between, starts at that read.

    A trace belongs to one request on one worker thread; it is not
    synchronised.  Spans may nest (eval inside exec): each [span] call
    records its own entry, so a parent's duration includes its
    children's — use {!self_us} where exclusive time is wanted. *)

type span = {
  id : int;  (** unique within the trace, assigned in entry order *)
  parent : int option;
      (** id of the enclosing span, or the trace's [parent_span] (a
          remote caller's span id) for top-level spans *)
  name : string;  (** stage name, e.g. ["parse"], ["op:hash-join"] *)
  start_us : int;  (** offset from trace creation, µs *)
  duration_us : int;
  labels : (string * string) list;
      (** key/value annotations attached via {!label} or {!count} while
          the span was open, e.g. [("rows", "42")] *)
}

type name = private int
(** A span name or a label key, interned once — at module
    initialisation for a stage, per plan operator, per coordinator
    slot — and recorded as its int. *)

val name : string -> name
(** The name for a string: the same int for equal strings, process-wide.
    Thread-safe.  Interned names are never released, so intern fixed
    vocabularies, not data. *)

val name_string : name -> string

type t

val create : ?trace_id:string -> ?parent_span:int -> unit -> t
(** Starts the clock.  [trace_id] (default: a fresh process-unique id)
    links this trace to a distributed request; [parent_span] is the
    remote caller's span id, recorded as the parent of this trace's
    top-level spans. *)

val format_trace_id : us:Int64.t -> pid:int -> seq:int -> string
(** The id {!create} mints by default from the microsecond clock, the
    process id and a process-wide counter: fixed-width hex fields of
    13, 6 and 8 digits (the clock fits 13 until the year 2112; pid and
    counter are taken modulo 2{^24} and 2{^32}), so a traced request's
    encoded size does not vary with the pid or with how many traces
    the process made before it. *)

val trace_id : t -> string
val parent_span : t -> int option

val current_parent : t -> int option
(** The id of the innermost open span (or the trace's [parent_span]
    when none is open): what a remote call made right now should carry
    as its wire parent, so the remote node's spans nest under the call
    site. *)

val started_at : t -> float
(** Absolute creation time ([Unix.gettimeofday]), the origin that
    [start_us] offsets are relative to — lets exporters align spans
    from different nodes on one timeline. *)

val span : t option -> name -> (unit -> 'a) -> 'a
(** [span trace name f] runs [f], recording a [name] span on [trace]
    covering its execution — including when [f] raises (the span
    closes and the exception passes through with its backtrace).
    [span None name f] is just [f ()]: callers thread [t option] and
    pay nothing when tracing is off. *)

val label : t option -> name -> string -> unit
(** [label trace k v] attaches [(k, v)] to the innermost open span.
    A no-op on [None] or when no span is open. *)

val count : t option -> name -> int -> unit
(** [count trace k n] is [label trace k (string_of_int n)], with [n]
    kept as an int until the trace is read. *)

val record : t -> name:name -> start_us:int -> duration_us:int -> unit
(** Appends a span measured externally (e.g. lock wait timed by the
    caller); its parent is the currently open span, if any. *)

val spans : t -> span list
(** In recording order (children before the parent that encloses
    them, since the parent's [span] call returns last). *)

val elapsed_us : t -> int
(** Microseconds since [create]. *)

val self_us : span list -> span -> int
(** [self_us spans s] is [s]'s duration minus the total duration of its
    direct children in [spans] (clamped at 0): the time spent in the
    operator itself rather than in nested work. *)

val iter_self : t -> (name -> int -> unit) -> unit
(** [iter_self t f] calls [f name self_us] for each span {!spans} would
    list, in that order, with {!self_us}'s self time — read off the
    recorder without building the span records. *)

(** {2 Frozen spans}

    A trace's spans as {!Flat} bytes: what {!Trace_store} keeps per
    ring slot.  Span names and label keys are written as their interned
    ints, counter values as ints. *)

val freeze : Flat.t -> t -> unit
(** Writes {!spans}' records. *)

val freeze_spans : Flat.t -> span list -> unit
(** Writes given records (their names and label keys interned). *)

val thaw : Flat.t -> span list
(** Reads what {!freeze} or {!freeze_spans} wrote. *)
