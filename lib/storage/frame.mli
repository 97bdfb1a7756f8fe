(** Frames, the one framing of every byte stream: a 4-byte big-endian
    payload length, then the payload; the log's entries are frames
    {e sealed} with a CRC-32.  The pure half builds and incrementally
    parses frames in a buffer; the blocking half sends and receives them
    over Unix sockets.  Both read a prefix, and enforce {!max_frame},
    through the same code. *)

exception Closed
(** The peer closed the connection (EOF, possibly mid-frame, or a
    connection-reset class error). *)

exception Timeout
(** A socket receive/send deadline (SO_RCVTIMEO / SO_SNDTIMEO) expired. *)

exception Oversized of int
(** The peer announced a payload longer than {!max_frame}: the stream
    is desynchronised beyond recovery. *)

val max_frame : int
(** Upper bound on accepted payload length (16 MiB); a length prefix
    beyond it is malformed, protecting peers from hostile allocations. *)

(** {1 Frames in a buffer} *)

val frame : string -> string
(** [frame payload] prepends the 4-byte big-endian length. *)

type extracted =
  | Incomplete  (** more bytes needed — not an error *)
  | Complete of { payload : string; consumed : int }
      (** one whole frame; [consumed] counts the prefix too *)
  | Malformed of string
      (** unrecoverable framing error (oversized length prefix): the
          stream is desynchronised and the connection should close *)

val extract : ?pos:int -> string -> extracted
(** Incremental deframing of a byte buffer starting at [pos]
    (default 0).  Never raises, for any input. *)

val seal : string -> string
(** [seal payload] is [frame payload] followed by the payload's CRC-32
    (IEEE 802.3): the frame of bytes at rest, where a flipped byte must
    not read back as data. *)

val extract_sealed : ?pos:int -> string -> extracted
(** {!extract} for sealed frames: [consumed] counts the checksum too, a
    checksum the buffer does not yet hold whole is [Incomplete], and one
    that does not match the payload is [Malformed].  Never raises. *)

(** {1 Frames over a socket} *)

val send : Unix.file_descr -> string -> int
(** [send fd payload] writes the whole frame, looping over partial
    writes.  Returns the number of bytes put on the wire (payload
    + 4).
    @raise Closed on EPIPE / ECONNRESET
    @raise Timeout when a send deadline is set and expires *)

type reader
(** A socket's receiving end, with a small buffer (4 KiB): one read(2)
    brings a small frame whole, its prefix included, and often the
    frames behind it.  A frame the buffer cannot hold is read straight
    into its own payload.  One reader per connection: bytes it has
    buffered are not on the socket any more. *)

val reader : Unix.file_descr -> reader

val buffered : reader -> bool
(** Whether the reader holds bytes it has not returned yet: the next
    {!recv} may then need no read(2), and [select] on the socket would
    not see them. *)

val recv : reader -> string * int
(** [recv r] reads exactly one frame and returns its payload and the
    number of bytes consumed (payload + 4).
    @raise Closed on EOF
    @raise Timeout when a receive deadline is set and expires
    @raise Oversized on a hostile length prefix *)
