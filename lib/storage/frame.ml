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

(* The 4-byte big-endian words of this file, prefix and checksum alike:
   the only place the system reads or writes one. *)
let add_word b n = Buffer.add_int32_be b (Int32.of_int n)
let word_at data pos = Int32.to_int (String.get_int32_be data pos) land 0xffff_ffff

(* CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320), one table
   lookup a byte. *)
let crc_table =
  let rec step k c =
    if k = 0 then c else step (k - 1) ((c lsr 1) lxor (0xEDB88320 * (c land 1)))
  in
  Array.init 256 (step 8)

let crc32 s =
  let byte c ch = crc_table.((c lxor Char.code ch) land 0xff) lxor (c lsr 8) in
  String.fold_left byte 0xffff_ffff s lxor 0xffff_ffff

let build payload ~sealed =
  let b = Buffer.create (String.length payload + 8) in
  add_word b (String.length payload);
  Buffer.add_string b payload;
  if sealed then add_word b (crc32 payload);
  Buffer.contents b

let frame payload = build payload ~sealed:false
let seal payload = build payload ~sealed:true

(* The payload length the prefix at [pos] announces: the one place a
   prefix is read and [max_frame] enforced.  [Error] carries the
   announced length. *)
let length_at data pos =
  let len = word_at data pos in
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

let extract_sealed ?(pos = 0) data =
  match extract ~pos data with
  | Complete { payload; consumed } ->
    let at = pos + consumed in
    if String.length data - at < 4 then Incomplete
    else if word_at data at <> crc32 payload then Malformed "checksum mismatch"
    else Complete { payload; consumed = consumed + 4 }
  | (Incomplete | Malformed _) as other -> other

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

(* A connection's receiving end: one read(2) fills the buffer with as
   much as the socket holds, so a small frame, its prefix included, and
   often the frames behind it arrive in one call.  [buf.(pos .. len-1)]
   are the bytes read but not yet returned. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 4096; pos = 0; len = 0 }
let buffered r = r.len > r.pos

let read_into fd buf off n =
  let k = handling_unix_errors (fun () -> Unix.read fd buf off n) in
  if k = 0 then raise Closed;
  k

(* At least [n] (at most the buffer's size) unread bytes in the buffer. *)
let fill r n =
  if r.len - r.pos < n then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
    r.len <- r.len - r.pos;
    r.pos <- 0;
    while r.len < n do
      r.len <- r.len + read_into r.fd r.buf r.len (Bytes.length r.buf - r.len)
    done
  end

let recv r =
  fill r 4;
  match length_at (Bytes.unsafe_to_string r.buf) r.pos with
  | Error len -> raise (Oversized len)
  | Ok len ->
    r.pos <- r.pos + 4;
    let held = Int.min len (r.len - r.pos) in
    if held = len then begin
      let payload = Bytes.sub_string r.buf r.pos len in
      r.pos <- r.pos + len;
      (payload, len + 4)
    end
    else begin
      (* The rest of the frame is read straight into its payload. *)
      let payload = Bytes.create len in
      Bytes.blit r.buf r.pos payload 0 held;
      r.pos <- r.len;
      let off = ref held in
      while !off < len do
        off := !off + read_into r.fd payload !off (len - !off)
      done;
      (Bytes.unsafe_to_string payload, len + 4)
    end
