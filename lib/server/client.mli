(** A blocking client for the expirel wire protocol.

    One TCP connection; requests are answered in order.  Pushed
    subscription events may arrive at any frame boundary — the client
    transparently queues them while waiting for a response; drain the
    queue with {!events} or wait for fresh ones with {!poll_events}.

    All calls return [Error _] rather than raising on connection and
    protocol failures; a failed connection is closed and stays unusable
    (reconnect).  A receive timeout is such a failure: the server's late
    reply would otherwise answer the next request. *)

val default_port : int
(** 7717 — the CLI default. *)

type t

val connect : ?timeout:float -> host:string -> port:int -> unit -> t
(** TCP connect ([timeout], default 10 s, bounds each blocking receive
    and send).  ["localhost"] resolves to the loopback address without
    a resolver.
    @raise Unix.Unix_error when the connection is refused *)

val dial : ?timeout:float -> host:string -> port:int -> unit -> Unix.file_descr
(** {!connect}'s socket alone, for a peer that reads a stream itself
    (a replica following its primary). *)

val close : t -> unit
(** Best-effort [Quit] + socket close.  Idempotent. *)

val request : t -> Wire.request -> (Wire.response, string) result
(** Sends one request and blocks for its (non-event) response. *)

val exchange :
  t -> Wire.request -> (Wire.response * int * int, string) result
(** {!request}, also returning the bytes the request and its response
    took on the wire (each frame's payload + 4); events queued on the
    way are not counted.  It is {!post} then {!collect}. *)

(** {1 Pipelined requests}

    A caller talking to several servers posts to each, then collects
    each reply as it arrives: [post] never waits for an answer, and
    [collect] reads the oldest unanswered one.  Requests on one
    connection are answered in order, so each [post] needs exactly one
    [collect] before the connection carries anything else. *)

val post : t -> Wire.request -> (int, string) result
(** Sends one request without reading; returns the bytes it took on
    the wire (payload + 4). *)

val collect : t -> (Wire.response * int, string) result
(** Blocks (at most the connection's receive timeout) for the next
    non-event response, queueing events on the way; returns it with
    the bytes its frame took. *)

val ready : t list -> timeout:float -> t list
(** The connections among [ts] with bytes waiting, after at most
    [timeout] seconds ([[]] when none arrived in time).  Bytes a
    connection's reader already buffered count without a [select].  A
    closed connection, or every one when [select] itself fails, counts
    as ready, so that {!collect} reports it. *)

val timeout : t -> float
(** The receive and send bound the connection was opened with. *)

val exec : t -> string -> (Wire.response, string) result
(** Executes one sqlx statement on a node or a coordinator, as a
    [Statement].  The answer is an ordinary [Rows] in presentation
    order whichever form it crossed the wire in: the client keeps the
    last answer the server held for a text, up to {!Wire.held_budget}
    rows, and names it on its next read of the text, so the server can
    reply with only the rows changed since.  A reply that does not fit
    the copy held ends the connection with [Error]. *)

val exec_traced :
  t -> ?trace:Expirel_obs.Trace.t -> string -> (Wire.response, string) result
(** Like {!exec}, but when [trace] is given the statement carries the
    trace's id and current span as context: the server's spans for this
    request record under the same trace id, nested below the call site
    — the client half of cross-node trace propagation.  Without [trace]
    it is exactly {!exec}. *)

val exec_ok : t -> string -> (unit, string) result
(** Like {!exec} but demands a non-error outcome — convenience for
    setup scripts; the server's [Err] responses map to [Error]. *)

val subscribe : t -> name:string -> query:string -> (unit, string) result
(** Registers a continuous query; its events stream onto this
    connection at the exact logical change times. *)

val unsubscribe : t -> string -> (unit, string) result

val metrics : t -> (string, string) result
(** Prometheus text-format exposition of every server metric. *)

val slow_queries :
  t -> int -> (Expirel_obs.Trace_store.entry list, string) result
(** The [n] slowest recorded statements, slowest first, with their
    per-stage span breakdowns: the server's trace store entries. *)

val traces : t -> int -> (Expirel_obs.Trace_store.entry list, string) result
(** The [n] most recent request traces, newest first — feed them (from
    several nodes) to {!Expirel_obs.Trace_export} for one merged
    Chrome trace. *)

val horizon :
  ?table:string -> t -> (Expirel_obs.Horizon.report, string) result
(** The server's forward expiration forecast: per-table bucketed counts
    of live rows by ticks-to-expiry, the subscription fan-out forecast
    and churn rates.  [table] restricts the profile to one table
    (unknown tables answer [Error]). *)

val health : t -> (Expirel_obs.Health.report, string) result
(** Evaluates the server's health rules: the overall verdict plus every
    firing rule (empty when all healthy). *)

val ping : t -> (unit, string) result

val events : t -> Wire.event list
(** Drains the already-received pushed events, oldest first. *)

val poll_events : t -> timeout:float -> Wire.event list
(** Reads pushed events off the socket until [timeout] seconds pass
    with nothing arriving, then drains like {!events}.  Only call
    with no request in flight. *)
