(** Write-ahead logging for the storage engine.

    A record is {!Expirel_core.Codec} bytes ({!put_record}), the bytes
    replication ships too.  A log file is a header (the magic
    ["EXPIREL\001"], then a sealed frame holding the file's base
    position), then one {!Frame.seal}ed entry per record.  Appends are
    flushed, never fsynced: a write survives a crash of the process, not
    a power loss.  {!replay} stops at the first entry that is cut short,
    fails its checksum or holds no record, so a crash mid-write loses at
    most the record being written, and a flipped byte ends the log at
    the last good record instead of being replayed. *)

open Expirel_core

type record =
  | Create_table of {
      name : string;
      columns : string list;
    }
  | Drop_table of string
  | Insert of {
      table : string;
      tuple : Tuple.t;
      texp : Time.t;
    }
  | Delete of {
      table : string;
      tuple : Tuple.t;
    }
  | Advance of Time.t

val put_record : Buffer.t -> record -> unit
(** A tag byte (1 create … 5 advance), then the fields; a tuple is a
    list of values, after an insert's [texp]. *)

val get_record : Codec.cursor -> record
val encode : record -> string

val decode : string -> (record, string) result
(** [Error] unless the bytes are exactly one record. *)

module Writer : sig
  type t

  val create : string -> base:int -> t
  (** Creates (or truncates) a log with the given base position. *)

  val append_to : string -> length:int -> t
  (** Opens a log for append after its good prefix ({!log}[.length]),
      cutting off the torn tail past it first. *)

  val write : t -> record -> unit
  (** Appends and flushes one record. *)

  val close : t -> unit
end

type log = {
  base : int;  (** the header's position: the one before the first record *)
  records : int;  (** the whole, well-formed records replayed *)
  length : int;  (** bytes of the header and those records: the good prefix *)
}

val replay : string -> f:(int -> record -> unit) -> (log, string) result
(** [replay path ~f] calls [f position record] on each record of the
    good prefix in order, the [k]th at position [base + k].  A missing
    or empty file is an empty log at base 0.  [Error] when the file does
    not start with a whole header: a text log, say, which must not be
    read as empty. *)
