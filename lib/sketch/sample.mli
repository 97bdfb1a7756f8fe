(** Uniform random sample over the live elements of an expiring stream.

    Priority sampling generalised to per-element expiration: every
    element draws an i.i.d. priority in [0,1), and an element is worth
    keeping exactly when fewer than [k] elements expiring no earlier
    than it have smaller priorities — at any query time [tau] the [k]
    smallest-priority live elements are then all still resident, and
    they form an exactly uniform [k]-subset of the live set.  Expired
    slots are lazily evicted; the backing structure holds the
    priority-by-texp skyline, expected O(k log n) entries. *)

open Expirel_core

type t

val create : ?seed:int -> k:int -> unit -> t
(** [seed] fixes the priority stream (tests); the default
    self-initialises.
    @raise Invalid_argument when [k < 1]. *)

val k : t -> int

val added : t -> int
(** Elements ever offered to the sketch. *)

val size : t -> int
(** Candidate entries currently resident (the memory knob). *)

val add : t -> Value.t list -> texp:Time.t -> unit
(** Offer one element (a row) that expires at [texp]. *)

val add_with_priority : t -> Value.t list -> texp:Time.t -> prio:float -> unit
(** Deterministic variant used by the property tests: the caller
    supplies the priority that {!add} would have drawn. *)

val compact : t -> unit
(** Drop entries that can never again be among the [k] smallest-priority
    live elements (it otherwise runs amortised). *)

val query : t -> tau:Time.t -> (Value.t list * Time.t) list
(** The sample of the live-at-[tau] elements: the [k] live entries with
    the smallest priorities (all of them when fewer than [k] are live),
    in priority order, each with its own [texp].  Never returns an
    expired element. *)

val horizon : t -> tau:Time.t -> Time.t
(** Earliest time strictly after [tau] at which the sample changes: the
    soonest expiration among the sampled elements ([Inf] when the
    sample is empty). *)

val merge : t -> t -> t
(** Shard-decomposability: merging preserves priorities, so the merged
    sketch is {e identical} to the sketch of the concatenated streams
    (the property tests pin this exactly).  Inputs are not mutated.
    @raise Invalid_argument when the [k]s differ. *)

val entries : t -> (Value.t list * Time.t * float) list
(** The resident candidate set with priorities (tests/debugging). *)

val memory_bytes : t -> int
val to_string : t -> string
(** A deserialised sketch draws fresh priorities for future {!add}s. *)

val of_string : string -> (t, string) result
