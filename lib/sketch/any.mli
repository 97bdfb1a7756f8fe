(** The closed sum of sketch kinds, as shipped between cluster nodes.

    A shard answers an approximate aggregate with a serialised [Any.t]
    partial; the coordinator merges the partials (same-kind,
    same-parameter) and renders rows from the merged sketch — the
    union-rule [texp(e)] of the merged answer is the merged sketch's
    own horizon. *)

open Expirel_core

type t =
  | Counter of Counter.t
  | Sample of Sample.t

val kind : t -> string
(** ["counter" | "sample"]. *)

val merge : t -> t -> (t, string) result
(** [Error] on kind or parameter mismatch. *)

val query_rows : tau:Time.t -> t -> (Value.t list * Time.t) list * Time.t
(** The sketch's answer at [tau] as result rows with per-row [texp],
    plus the sketch's [texp]-horizon — the earliest time strictly after
    [tau] at which the answer can change, i.e. the answer's [texp(e)].
    Counter: one row [(estimate, within)].  Sample: up to [k] live
    rows. *)

val live_estimate : tau:Time.t -> t -> float
(** The scalar the live-estimate gauge reports: the counter's estimate,
    the sample's current live sample size. *)

val memory_bytes : t -> int

val to_string : t -> string
(** Tagged, self-describing encoding (leading kind byte). *)

val of_string : string -> (t, string) result
