(* The one binary codec.  Writers append to a [Buffer.t]; readers walk a
   cursor that checks the bytes are there before it reads or allocates,
   and abort through [Bad], which [decode] alone turns into [Error].

   An int travels as a varint of its zigzag (0, -1, 1, -2, … as 0, 1,
   2, 3, …): the 63-bit pattern little-endian, seven bits a byte, the
   high bit marking "more", so small magnitudes of either sign take one
   byte and the extremes nine.  All arithmetic stays on native ints. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ---------- writing ---------- *)

let put_u8 b n = Buffer.add_char b (Char.unsafe_chr (n land 0xff))
let put_bool b v = put_u8 b (Bool.to_int v)

let rec put_uvarint b v =
  if v lsr 7 = 0 then put_u8 b v
  else begin
    put_u8 b (v lor 0x80);
    put_uvarint b (v lsr 7)
  end

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor -(v land 1)
let put_int b n = put_uvarint b (zigzag n)
let put_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let put_str b s =
  put_uvarint b (String.length s);
  Buffer.add_string b s

(* [Inf] is 0 and [Fin n] the zigzag of [n] plus one.  The sum wraps to
   0 only for [min_int], which goes out as the two-byte zero: the
   reader tells [Inf] by its one byte and undoes the wrap. *)
let put_time b = function
  | Time.Inf -> put_u8 b 0
  | Time.Fin n ->
    (match zigzag n + 1 with
     | 0 -> Buffer.add_string b "\x80\x00"
     | v -> put_uvarint b v)

let put_value b = function
  | Value.Null -> put_u8 b 0
  | Value.Bool v ->
    put_u8 b 1;
    put_bool b v
  | Value.Int n ->
    put_u8 b 2;
    put_int b n
  | Value.Float f ->
    put_u8 b 3;
    put_f64 b f
  | Value.Str s ->
    put_u8 b 4;
    put_str b s

let put_list b put xs =
  put_uvarint b (List.length xs);
  List.iter (put b) xs

let put_option b put = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    put b v

(* ---------- reading ---------- *)

type cursor = {
  data : string;
  mutable pos : int;
}

let need c n =
  if n < 0 || n > String.length c.data - c.pos then raise (Bad "truncated payload")

let get_u8 c =
  let pos = c.pos in
  if pos >= String.length c.data then raise (Bad "truncated payload");
  c.pos <- pos + 1;
  Char.code (String.unsafe_get c.data pos)

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | n -> bad "bad boolean byte %d" n

(* Nine bytes carry all 63 bits, so a ninth byte still marking "more"
   would carry bits no int has. *)
let rec get_bits c acc shift =
  let pos = c.pos in
  if pos >= String.length c.data then raise (Bad "truncated payload");
  c.pos <- pos + 1;
  let byte = Char.code (String.unsafe_get c.data pos) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then acc
  else if shift = 56 then raise (Bad "varint too long")
  else get_bits c acc (shift + 7)

(* The one-byte case inline: most lengths, tags' payloads and small
   ints take one byte. *)
let get_uvarint c =
  let pos = c.pos in
  if pos < String.length c.data && String.unsafe_get c.data pos < '\x80' then begin
    c.pos <- pos + 1;
    Char.code (String.unsafe_get c.data pos)
  end
  else get_bits c 0 0

let get_int c = unzigzag (get_uvarint c)

let get_f64 c =
  need c 8;
  let f = Int64.float_of_bits (String.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  f

(* A length or count: every element takes at least one byte, so one
   beyond the remaining bytes (or past [max_int]) is hostile and is
   refused before anything is allocated for it. *)
let get_len c =
  let n = get_uvarint c in
  need c n;
  n

let get_str c =
  let n = get_len c in
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_time c =
  let start = c.pos in
  match get_uvarint c with
  | 0 when c.pos = start + 1 -> Time.Inf
  | v -> Time.Fin (unzigzag (v - 1))

let get_value c =
  match get_u8 c with
  | 0 -> Value.Null
  | 1 -> Value.Bool (get_bool c)
  | 2 -> Value.Int (get_int c)
  | 3 -> Value.Float (get_f64 c)
  | 4 -> Value.Str (get_str c)
  | n -> bad "bad value tag %d" n

let get_list c get =
  let n = get_len c in
  List.init n (fun _ -> get c)

let get_option c get =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get c)
  | n -> bad "bad presence byte %d" n

let decode ~what get data =
  let c = { data; pos = 0 } in
  match
    let v = get c in
    if c.pos <> String.length data then raise (Bad "trailing bytes");
    v
  with
  | v -> Ok v
  | exception Bad reason -> Error (what ^ ": " ^ reason)

let encode put v =
  let b = Buffer.create 64 in
  put b v;
  Buffer.contents b
