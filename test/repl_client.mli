(** A read-routing client over a replicated deployment.

    Writes (and clock advances) go to the primary; reads fan out over
    the replicas round-robin.  An endpoint that fails is put aside and
    redialed under {!Backoff} — until then its turn falls through to the
    next replica, and with every replica down reads fall back to the
    primary, so a degraded fleet loses freshness head-room, not
    availability.

    Replica reads are {e expiration-exact}: each replica applies the
    primary's clock advances through its own storage, so a read never
    returns a tuple whose expiration time has passed on the primary's
    clock (the replica may lag — a tuple inserted on the primary may not
    be visible {e yet} — but never resurrects expired state). *)

open Expirel_server
open Expirel_repl

type endpoint = Member.endpoint = {
  host : string;
  port : int;
}

type t

val create :
  ?backoff:(unit -> Backoff.t) ->
  primary:endpoint ->
  replicas:endpoint list ->
  unit ->
  t
(** No sockets are opened until first use; every endpoint is dialed
    lazily and redialed on failure.  [backoff] makes the per-endpoint
    retry policy (default {!Backoff.create}). *)

val exec : ?trace:Expirel_obs.Trace.t -> t -> string -> (Wire.response, string) result
(** One sqlx statement on the primary (writes, ADVANCE, anything).
    With [trace], the call is wrapped in a local [rpc:primary] span and
    ships the trace context, so the primary's spans for this statement
    record under the same trace id. *)

val query : ?trace:Expirel_obs.Trace.t -> t -> string -> (Wire.response, string) result
(** One read-only statement on the next available replica (round-robin,
    skipping endpoints in backoff), falling back to the primary when no
    replica answers.  With [trace], as {!exec}: a local
    [rpc:replica-<i>] span plus propagated context — the serving
    replica's spans join this trace's id. *)

val close : t -> unit
(** Closes every open connection.  Idempotent. *)
