(** Thread-safe metric instruments: counters, gauges, histograms and
    labeled families of each.

    Counters and gauges are atomics.  A histogram guards its buckets
    with its own mutex, held only around a few array writes that cannot
    raise; every critical section that can raise (a family's label
    validation, a snapshot) runs under [Fun.protect], so one failing
    caller can never leave a mutex locked and deadlock every subsequent
    one.  (The predecessor of this module, [Server.Metrics], had
    exactly that bug: its [locked] helper unlocked only on the success
    path.)

    Instruments hold integer values in a caller-chosen base unit
    (microseconds for latencies, bytes for sizes); scaling to the
    Prometheus-conventional base units happens at exposition time
    ({!Prometheus}). *)

module Counter : sig
  type t

  val create : unit -> t

  val incr : t -> unit

  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment (counters are
      monotone) *)

  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> int -> unit
  val add : t -> int -> unit
  (** [add g n] shifts the gauge by [n] (negative allowed). *)

  val value : t -> int
end

module Histogram : sig
  type t

  val default_latency_bounds_us : int array
  (** Log-scale microsecond upper bounds,
      [50; 100; 250; 500; 1_000; …; 250_000; 500_000; 1_000_000], with a
      final [max_int] overflow bucket.  The 500 ms bound plugs the gap
      the original server histogram had between 250 ms and 1 s. *)

  val create : ?bounds:int array -> unit -> t
  (** [bounds] (default {!default_latency_bounds_us}) must be strictly
      increasing; a final [max_int] catch-all is appended when missing.
      @raise Invalid_argument on unsorted bounds *)

  val observe : t -> int -> unit
  (** Adds one observation (clamped into the first bucket whose bound it
      does not exceed). *)

  type snapshot = {
    bounds : int array;  (** upper bounds, ascending, last is [max_int] *)
    counts : int array;  (** per-bucket (non-cumulative) counts *)
    sum : int;  (** sum of every observed value *)
    count : int;  (** number of observations *)
  }

  val snapshot : t -> snapshot
  (** Atomic per-histogram: the bucket counts, sum and count are
      mutually consistent ([sum] and [count] cover exactly the
      observations in [counts]). *)
end

module Family : sig
  (** A labeled family: one instrument per label-value combination,
      created on first use.  ['a] is the instrument type. *)

  type 'a t

  val create : labels:string list -> make:(unit -> 'a) -> 'a t
  (** [labels] are the label {e names}; every lookup must supply exactly
      that many values.
      @raise Invalid_argument on an empty or duplicated label list *)

  val label_names : 'a t -> string list

  val labelled : 'a t -> string list -> 'a
  (** The instrument for the given label values, created if absent.
      @raise Invalid_argument when the number of values does not match
      the family's label names (the mutex is released on the way out —
      see the module preamble) *)

  val fold : 'a t -> init:'b -> f:((string * string) list -> 'a -> 'b -> 'b) -> 'b
  (** Folds over (label bindings, instrument) pairs, bindings in the
      declared label order, entries sorted by label values. *)
end
