(** A named collection of instruments, the unit of exposition.

    A registry maps metric names to instruments (or labeled families of
    them, or polled gauge callbacks) together with the help text and
    unit scale that {!Prometheus.render} needs.  Registration is
    thread-safe; names must be unique.

    {!collect} snapshots every metric.  Polled gauge callbacks run
    {e outside} the registry mutex — they are expected to take their own
    locks (the server's replication source does), and holding ours
    across theirs would invert lock order.  A raising callback is
    skipped for that collection (its metric reports no samples) rather
    than failing the whole exposition; this is the deadlock-regression
    surface the tests hammer. *)

type t

val create : unit -> t

(** {1 Samples} *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of Instrument.Histogram.snapshot

type kind = Counter_kind | Gauge_kind | Histogram_kind

(** {1 Registration}

    All registration functions raise [Invalid_argument] when [name] is
    already registered. *)

val counter : t -> name:string -> help:string -> Instrument.Counter.t

val gauge : t -> name:string -> help:string -> Instrument.Gauge.t

val gauge_fun : t -> name:string -> help:string -> (unit -> float) -> unit
(** A gauge whose value is computed at collection time by the callback.
    The callback runs outside the registry mutex; if it raises, the
    metric is skipped for that collection. *)

val custom :
  t -> ?scale:float -> name:string -> help:string ->
  kind:kind -> (unit -> ((string * string) list * sample) list) -> unit
(** A fully polled metric: the callback produces the complete sample
    list (label bindings included) at collection time.  Same contract
    as {!gauge_fun} — runs outside the registry mutex, a raise skips
    the metric for that collection.  Use for label sets only known at
    poll time (per-view gauges). *)

val histogram :
  t -> ?scale:float -> ?bounds:int array -> name:string -> help:string ->
  unit -> Instrument.Histogram.t
(** [scale] (default [1.0]) multiplies observed integers at exposition —
    [~scale:1e-6] renders microsecond observations as Prometheus-base
    seconds. *)

val counter_family :
  t -> name:string -> help:string -> labels:string list ->
  Instrument.Counter.t Instrument.Family.t

val gauge_family :
  t -> name:string -> help:string -> labels:string list ->
  Instrument.Gauge.t Instrument.Family.t

val histogram_family :
  t -> ?scale:float -> ?bounds:int array -> name:string -> help:string ->
  labels:string list -> unit -> Instrument.Histogram.t Instrument.Family.t

(** {1 Collection} *)

type metric = {
  name : string;
  help : string;
  kind : kind;
  scale : float;  (** multiply integer samples by this at exposition *)
  samples : ((string * string) list * sample) list;
      (** one entry per label combination; [[]] labels for unlabeled
          instruments.  Empty when a polled callback raised. *)
}

val collect : t -> metric list
(** Metrics in registration order.  Safe to call concurrently with
    observations and registrations. *)

val find : metric list -> string -> metric option
(** The metric a collection holds under [name]. *)

val values : metric list -> string -> float list
(** One reading per label combination of the named metric: counters
    and gauges scaled by the metric's exposition scale, histograms as
    their observation count.  [[]] when the metric is absent or has no
    samples this collection (e.g. its polled provider raised).  Health
    rules take the maximum; an in-process reader that wants a total
    (say, expirations over every removal [mode]) sums them. *)
