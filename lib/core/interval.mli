(** Half-open time intervals [\[lo, hi\[] as used by the Schrödinger
    semantics of Section 3.4 ([intervals] is the set of intervals
    [\[tau1, tau2\[] with [tau1 < tau2]). *)

type t = private {
  lo : Time.t;  (** inclusive lower bound *)
  hi : Time.t;  (** exclusive upper bound; [Inf] for unbounded *)
}

val make : Time.t -> Time.t -> t
(** [make lo hi] is [\[lo, hi\[].
    @raise Invalid_argument unless [lo < hi]. *)

val make_opt : Time.t -> Time.t -> t option
(** [make_opt lo hi] is [Some \[lo, hi\[] when [lo < hi], else [None]. *)

val from : Time.t -> t
(** [from lo] is [\[lo, Inf\[]. *)

val bounds : t -> Time.t * Time.t
val equal : t -> t -> bool

val mem : Time.t -> t -> bool
(** [mem tau i] holds when [lo <= tau < hi].  As a special case an
    unbounded interval [\[lo, Inf\[] means "from [lo] onwards" and
    contains the symbolic time [Inf] itself. *)

val duration : t -> Time.t
(** [duration i] is [hi - lo]; [Inf] when unbounded. *)

val overlaps : t -> t -> bool
(** Whether the two intervals share at least one time point. *)

val adjacent : t -> t -> bool
(** Whether the intervals abut exactly ([hi] of one equals [lo] of the
    other) without overlapping. *)

val inter : t -> t -> t option
(** Set intersection; [None] when disjoint. *)

val union : t -> t -> t option
(** [union a b] is the interval covering both when they overlap or are
    adjacent; [None] otherwise (the union would not be an interval). *)

val subset : t -> t -> bool
(** [subset a b] holds when every point of [a] lies in [b]. *)

val pp : Format.formatter -> t -> unit
