(** The request loop a node and a coordinator share: accept, the
    connection cap ([Overloaded] past it), framing, the wire counters,
    [PING] and [QUIT], and the traced statement path — a [parse] span,
    the service's run, the connection's held answers, the stage
    histograms and the trace store [SLOW] ranks.  [METRICS], [HEALTH],
    [HORIZON] and [TRACE] are the service's, and every other request
    goes to its fallback with the connection (a node pushes watch
    events on it, or turns it into a replication stream).

    Each connection holds what it last sent per statement text, up to
    {!Wire.held_budget} rows, oldest evicted first: a client's answers,
    so a re-read naming its copy gets only the rows changed since
    ({!Wire.Held_rows}), and a coordinator's kept GROUP BY groups
    ({!hold_groups}).  {!stop} is graceful: in-flight requests get
    their responses before the workers are joined. *)

open Expirel_sqlx

type t

type conn
(** One accepted connection: its outbound stream and held answers. *)

type 's service = {
  parse : string -> 's;  (** raises {!Expirel_sqlx.Parser.Error} *)
  holdable : 's -> bool;  (** whether its rows go out in tuple order *)
  run :
    Expirel_obs.Trace.t option -> string -> 's ->
    (Interp.outcome, Wire.response) result;
      (** a statement and its text: the outcome, or the [Err] reply *)
  metrics : unit -> Wire.response;
  health : unit -> Wire.response;
  horizon : string option -> Wire.response;
  traces : int -> Expirel_obs.Trace_store.entry list;  (** [TRACE n] *)
  other : conn -> Wire.request -> Wire.response option;
      (** [None]: it took the connection over, which then closes *)
  closed : conn -> unit;
}

val create :
  node_name:string -> max_connections:int -> request_timeout:float ->
  health_rules:Expirel_obs.Health.rule list -> unit -> t
(** Not listening yet.  [node_name] names its traces and
    [request_timeout] bounds a blocked send. *)

val metrics : t -> Metrics.t
(** Where the loop counts, and the service registers its own families:
    one METRICS page. *)

val health : t -> Expirel_obs.Health.report
(** The health rules over {!metrics}' collection; the verdict feeds the
    [expirel_health_status] gauge.  The caller holds what polled gauges
    need. *)

val trace_store : t -> Expirel_obs.Trace_store.t

val start : t -> host:string -> port:int -> 's service -> unit
(** @raise Invalid_argument when already started
    @raise Unix.Unix_error when the address cannot be bound *)

val port : t -> int
(** @raise Invalid_argument before {!start} *)

val stopping : t -> bool
val wait : t -> unit
val stop : t -> unit

val traced :
  t -> ?trace:Expirel_obs.Trace.t -> ?ctx:Wire.trace_ctx -> parse:(string -> 's) ->
  string -> (Expirel_obs.Trace.t option -> 's -> Wire.response) -> Wire.response
(** [run] of the statement parsed under a [parse] span, or the parse
    error ({!Wire.parsing}).  Given [trace], the caller finishes it;
    otherwise a trace opens under [ctx] (when given) and is observed
    into {!metrics} and finished into {!trace_store}. *)

val reply : (Interp.outcome, Wire.response) result -> Wire.response
(** An outcome as plain [Rows] or [Ok_msg]. *)

val holdable : Ast.statement -> bool
(** A query without ORDER BY and LIMIT. *)

val id : conn -> int
val alive : conn -> bool

val send : conn -> Wire.response -> unit
(** One frame, serialised with the connection's other writes; a failed
    write marks the connection dead. *)

val hold_groups :
  conn -> sql:string -> held:int option ->
  string list * Interp.agg_groups * Expirel_core.Time.t -> Wire.shard_body
(** A [Want_agg] body.  A kept read ([held]) from a standing entry goes
    out under a fresh version: the groups changed since version [held]
    when the connection holds it, else every group. *)
