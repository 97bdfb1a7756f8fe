(** Normalised sets of disjoint, non-adjacent, sorted half-open intervals.

    Section 3.3 replaces the single expiration time of a materialised
    expression with "a set of time intervals during which the result is
    valid"; this module is that representation. *)

type t

val empty : t
val full : t
(** All of time: [\[-Inf... \[] is not representable; [full] is
    [\[Time.zero, Inf\[], the domain of the paper's non-negative times.
    Use [of_interval (Interval.from tau)] for "[tau] onwards". *)

val of_interval : Interval.t -> t
val of_list : Interval.t list -> t
(** Builds the normal form: overlapping and adjacent intervals are merged. *)

val to_list : t -> Interval.t list
(** Sorted, disjoint, non-adjacent. *)

val add : Interval.t -> t -> t
val mem : Time.t -> t -> bool
val equal : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val complement : within:Interval.t -> t -> t
(** [complement ~within s] is [within - s]. *)

val cardinal : t -> int
(** Number of maximal intervals. *)

val total_duration : t -> Time.t
(** Sum of interval durations; [Inf] if any interval is unbounded. *)

val first_gap_after : Time.t -> t -> Time.t option
(** [first_gap_after tau s] is the earliest time [>= tau] not covered by
    [s], or [None] when [s] covers [\[tau, Inf\[]. *)

val next_covered_after : Time.t -> t -> Time.t option
(** [next_covered_after tau s] is the earliest covered time [>= tau], or
    [None] if no covered time follows. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
