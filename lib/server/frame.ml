exception Closed
exception Timeout
exception Oversized of int

let max_frame = 16 * 1024 * 1024

(* The EPIPE -> Closed contract below only holds if EPIPE arrives as an
   error code: by default a write to a peer that vanished mid-stream (a
   killed replica, a dropped client) delivers SIGPIPE and terminates
   the whole process before Unix_error is ever raised. *)
let () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let frame payload =
  let b = Buffer.create (String.length payload + 4) in
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

(* The payload length the prefix at [pos] announces: the one place a
   prefix is read and [max_frame] enforced.  [Error] carries the
   announced length. *)
let length_at data pos =
  let byte i = Char.code data.[pos + i] in
  let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  if len > max_frame then Error len else Ok len

type extracted =
  | Incomplete
  | Complete of { payload : string; consumed : int }
  | Malformed of string

let extract ?(pos = 0) data =
  let remaining = String.length data - pos in
  if pos < 0 then Malformed "negative position"
  else if remaining < 4 then Incomplete
  else
    match length_at data pos with
    | Error len ->
      Malformed (Printf.sprintf "length prefix %d exceeds max frame %d" len max_frame)
    | Ok len when remaining - 4 < len -> Incomplete
    | Ok len -> Complete { payload = String.sub data (pos + 4) len; consumed = 4 + len }

let rec handling_unix_errors f =
  try f () with
  | Unix.Unix_error (Unix.EINTR, _, _) -> handling_unix_errors f
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
    raise Timeout
  | Unix.Unix_error
      ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN | Unix.EBADF), _, _) ->
    raise Closed

let send fd payload =
  let data = frame payload in
  let len = String.length data in
  let bytes = Bytes.unsafe_of_string data in
  let rec go off =
    if off < len then begin
      let n = handling_unix_errors (fun () -> Unix.write fd bytes off (len - off)) in
      if n = 0 then raise Closed;
      go (off + n)
    end
  in
  go 0;
  len

let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k = handling_unix_errors (fun () -> Unix.read fd buf off (n - off)) in
      if k = 0 then raise Closed;
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let recv fd =
  match length_at (read_exact fd 4) 0 with
  | Error len -> raise (Oversized len)
  | Ok len -> (read_exact fd len, len + 4)
