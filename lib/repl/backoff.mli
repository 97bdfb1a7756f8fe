(** Capped exponential backoff with jitter, for reconnect loops.

    Delays grow as [base * 2^attempt] up to [cap], and each is jittered
    (equal jitter: half the span deterministic, half uniform) so a fleet
    of replicas that lost the same primary does not redial in
    lock-step. *)

type t

val create : ?base:float -> ?cap:float -> ?seed:int -> unit -> t
(** [base] (default 0.05 s) is the first delay's span, [cap] (default
    2 s) the largest; [seed] fixes the jitter stream for tests. *)

val next : t -> float
(** The next delay in seconds, advancing the attempt counter. *)

val reset : t -> unit
(** Back to the first attempt — call after a connection proves
    healthy. *)
