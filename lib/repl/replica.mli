(** A replica: a read-only expirel server plus an applier thread that
    follows a primary's log.

    The applier dials the primary, sends a [REPLICATE] handshake
    carrying its own durable position (persisted across restarts, so a
    killed replica resumes exactly where it stopped), and applies
    whatever comes back: a snapshot bootstrap when it is cold or fell
    behind the primary's retained tail, the record stream otherwise.
    Records land through the same clock discipline as a local [ADVANCE]
    — expirations fire at their exact logical times — so a read served
    by the replica never shows a tuple the primary's clock has already
    expired.

    On any failure (refused dial, dead socket, a receive quiet past the
    heartbeat window) the applier redials under {!Backoff}, resuming
    from its current position.  Lag is observable over the wire: the
    replica's [METRICS] page carries the [expirel_repl_*] samples
    ({!Expirel_server.Metrics.repl_stats}, role [replica]). *)

open Expirel_core
open Expirel_server

type t

val create :
  ?host:string ->
  ?port:int ->
  ?replica_id:string ->
  ?backoff:Backoff.t ->
  data_dir:string ->
  primary_host:string ->
  primary_port:int ->
  unit ->
  t
(** A replica serving [host]:[port] (default loopback, ephemeral) from
    its own durable directory.  [replica_id] (default derived from
    [data_dir]) names the session in the primary's follower registry. *)

val start : t -> unit
(** Starts the embedded server and the applier thread. *)

val stop : t -> unit
(** Stops the applier (waking it if blocked), then the server.
    Idempotent. *)

val port : t -> int
(** The read endpoint's bound port. *)

val server : t -> Server.t
(** The embedded read-only server. *)

val position : t -> int
(** Log records applied so far (the handshake cursor). *)

val source_position : t -> int
(** The primary's position as last heard (streams and heartbeats). *)

val source_now : t -> Time.t
(** The primary's logical clock as last heard. *)

val reconnects : t -> int
val snapshots_received : t -> int
val records_applied : t -> int
val wait_for_position : ?timeout:float -> t -> int -> bool
(** Blocks (polling) until {!position} reaches the given position or
    [timeout] (default 5 s) elapses; [true] on success.  Test and
    tooling convenience. *)
