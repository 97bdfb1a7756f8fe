(** One remote expirel node as seen by a routing client: a lazily
    dialed connection with exponential-backoff redialing.

    Shared by the cluster coordinator (shard-map routing) and the
    tests' primary/replica routing client — both care only that an
    endpoint is dialed on demand, put aside when it fails, and not
    hammered while it is down. *)

open Expirel_server

type endpoint = {
  host : string;
  port : int;
}

val endpoint_of_string : string -> endpoint option
(** [HOST:PORT], split at the last colon; [None] without a host or a
    numeric port. *)

type t

val create : ?backoff:(unit -> Backoff.t) -> endpoint -> t
(** No socket is opened until first use.  [backoff] makes the retry
    policy (default {!Backoff.create}). *)

val endpoint : t -> endpoint

val connection : t -> Client.t option
(** The established connection, dialing if allowed; [None] while the
    endpoint is in backoff, refusing connections, or its host does not
    resolve. *)

val would_dial : t -> bool
(** [connection] would dial now, blocking for as long as the connect
    takes: there is no connection and the backoff has run out. *)

val drop : t -> unit
(** Closes the connection (if any) and schedules the next redial under
    backoff — call when a request-level failure shows the connection is
    unusable. *)

val close : t -> unit
(** Closes without scheduling a redial.  Idempotent. *)
