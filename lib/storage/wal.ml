open Expirel_core
open Codec

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

let put_tuple b tuple = put_list b put_value (Tuple.to_list tuple)
let get_tuple c = Tuple.of_list (get_list c get_value)

let put_record b = function
  | Create_table { name; columns } ->
    put_u8 b 1;
    put_str b name;
    put_list b put_str columns
  | Drop_table name ->
    put_u8 b 2;
    put_str b name
  | Insert { table; tuple; texp } ->
    put_u8 b 3;
    put_str b table;
    put_time b texp;
    put_tuple b tuple
  | Delete { table; tuple } ->
    put_u8 b 4;
    put_str b table;
    put_tuple b tuple
  | Advance t ->
    put_u8 b 5;
    put_time b t

let get_record c =
  match get_u8 c with
  | 1 ->
    let name = get_str c in
    Create_table { name; columns = get_list c get_str }
  | 2 -> Drop_table (get_str c)
  | 3 ->
    let table = get_str c in
    let texp = get_time c in
    Insert { table; texp; tuple = get_tuple c }
  | 4 ->
    let table = get_str c in
    Delete { table; tuple = get_tuple c }
  | 5 -> Advance (get_time c)
  | n -> bad "bad record tag %d" n

let encode = Codec.encode put_record
let decode = Codec.decode ~what:"wal record" get_record

(* A log file opens with the magic (its last byte the format's version)
   and a sealed frame holding the base position. *)
let magic = "EXPIREL\001"
let header base = magic ^ Frame.seal (Codec.encode put_int base)

let read_header data =
  let start = String.length magic in
  match Frame.extract_sealed ~pos:start data with
  | Frame.Complete { payload; consumed } when String.starts_with ~prefix:magic data ->
    Result.to_option
      (Codec.decode ~what:"log header" (fun c -> (get_int c, start + consumed)) payload)
  | Frame.Complete _ | Frame.Incomplete | Frame.Malformed _ -> None

module Writer = struct
  type t = out_channel

  let create path ~base =
    let channel = open_out_bin path in
    output_string channel (header base);
    flush channel;
    channel

  let append_to path ~length =
    Unix.truncate path length;
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

  let write channel record =
    output_string channel (Frame.seal (encode record));
    flush channel

  let close = close_out
end

type log = {
  base : int;
  records : int;
  length : int;
}

let replay path ~f =
  let data =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  match read_header data with
  | _ when data = "" -> Ok { base = 0; records = 0; length = 0 }
  | None -> Error "not a log in this format (no header; a text log predates it)"
  | Some (base, start) ->
    (* The torn tail: an entry cut short, a checksum that does not match,
       or bytes that are no record all end the good prefix. *)
    let rec walk pos records =
      let stop () = Ok { base; records; length = pos } in
      match Frame.extract_sealed ~pos data with
      | Frame.Complete { payload; consumed } ->
        (match decode payload with
         | Ok record ->
           f (base + records + 1) record;
           walk (pos + consumed) (records + 1)
         | Error _ -> stop ())
      | Frame.Incomplete | Frame.Malformed _ -> stop ()
    in
    walk start 0
