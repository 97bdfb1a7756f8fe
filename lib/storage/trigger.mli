(** Triggers that fire when tuples expire (Section 1: "triggers can be
    supported that fire on expirations, as can integrity constraint
    checking").

    Handlers are keyed by (trigger name, table name); a table name of
    ["*"] subscribes to every table. *)

open Expirel_core

type event = {
  table : string;
  tuple : Tuple.t;
  texp : Time.t;  (** the expiration time that passed *)
  fired_at : Time.t;  (** clock value when the trigger fired *)
}

type handler = event -> unit

type registry

val create : unit -> registry

val register : registry -> name:string -> table:string -> handler -> unit
(** Replaces any existing trigger with the same [name]. *)

val unregister : registry -> name:string -> unit
val count : registry -> int

val fire : registry -> event -> unit
(** Invokes every handler subscribed to the event's table. *)
