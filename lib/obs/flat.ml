type t = {
  mutable bytes : Bytes.t;
  mutable pos : int;
}

let create n = { bytes = Bytes.create n; pos = 0 }
let reader bytes = { bytes; pos = 0 }

let grow t need =
  let b = Bytes.create (Int.max need (2 * Bytes.length t.bytes)) in
  Bytes.blit t.bytes 0 b 0 t.pos;
  t.bytes <- b

let[@inline] reserve t n = if t.pos + n > Bytes.length t.bytes then grow t (t.pos + n)

(* The bounds-checked primitives the stdlib's [Bytes.get_int64_le]
   wraps, called directly so that the int64 stays unboxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external swap64 : int64 -> int64 = "%bswap_int64"

let get_le b at = if Sys.big_endian then swap64 (get64 b at) else get64 b at
let set_le b at v = set64 b at (if Sys.big_endian then swap64 v else v)
let int_at b at = Int64.to_int (get_le b at)

let[@inline] add_int t v =
  reserve t 8;
  set_le t.bytes t.pos (Int64.of_int v);
  t.pos <- t.pos + 8

let add_string t s =
  let n = String.length s in
  add_int t n;
  reserve t n;
  Bytes.blit_string s 0 t.bytes t.pos n;
  t.pos <- t.pos + n

let add_float t f =
  reserve t 8;
  set_le t.bytes t.pos (Int64.bits_of_float f);
  t.pos <- t.pos + 8

let int t =
  let v = int_at t.bytes t.pos in
  t.pos <- t.pos + 8;
  v

let string t =
  let n = int t in
  let s = Bytes.sub_string t.bytes t.pos n in
  t.pos <- t.pos + n;
  s

let float t =
  let v = Int64.float_of_bits (get_le t.bytes t.pos) in
  t.pos <- t.pos + 8;
  v
