open Expirel_core

(* Slot [i] is vacant when [hashes.(i)] is [vacant]; else it holds
   [tuples.(i)] with its texp and hash.  The arrays' length is a power
   of two, so a hash's home slot is its low bits. *)
type t = {
  mutable hashes : int array;
  mutable tuples : Tuple.t array;
  mutable texps : Time.t array;
  mutable count : int;
}

let vacant = -1
let no_tuple = Tuple.of_list []

let arrays m slots =
  m.hashes <- Array.make slots vacant;
  m.tuples <- Array.make slots no_tuple;
  m.texps <- Array.make slots Time.zero

let create slots =
  let rec pow2 n = if n >= slots then n else pow2 (2 * n) in
  let m = { hashes = [||]; tuples = [||]; texps = [||]; count = 0 } in
  arrays m (pow2 2);
  m

let hash tuple = Tuple.hash tuple land max_int
let length m = m.count
let mask m = Array.length m.hashes - 1

let rec probe m tuple hash i =
  let h = m.hashes.(i) in
  if h = vacant || (h = hash && Tuple.equal m.tuples.(i) tuple) then i
  else probe m tuple hash ((i + 1) land mask m)

let slot m tuple ~hash = probe m tuple hash (hash land mask m)
let held m i = m.hashes.(i) <> vacant
let texp m i = m.texps.(i)
let set_texp m i texp = m.texps.(i) <- texp

(* Each entry goes to the first vacant slot from its home in the
   doubled arrays: no two entries are equal, so none is compared. *)
let grow m =
  let hashes = m.hashes and tuples = m.tuples and texps = m.texps in
  arrays m (2 * Array.length hashes);
  let mask = mask m in
  for i = 0 to Array.length hashes - 1 do
    let h = hashes.(i) in
    if h <> vacant then begin
      let j = ref (h land mask) in
      while m.hashes.(!j) <> vacant do j := (!j + 1) land mask done;
      m.hashes.(!j) <- h;
      m.tuples.(!j) <- tuples.(i);
      m.texps.(!j) <- texps.(i)
    end
  done

let fill m i tuple ~hash texp =
  m.hashes.(i) <- hash;
  m.tuples.(i) <- tuple;
  m.texps.(i) <- texp;
  m.count <- m.count + 1;
  if 2 * m.count > Array.length m.hashes then grow m

(* The hole moves down the chain: the next entry whose home is not
   after the hole (cyclically, as seen from the entry's slot) fills it
   and leaves a hole of its own, until a vacant slot ends the chain. *)
let clear m i =
  let mask = mask m in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let h = m.hashes.(j) in
    if h = vacant then hole
    else if (j - h) land mask >= (j - hole) land mask then begin
      m.hashes.(hole) <- h;
      m.tuples.(hole) <- m.tuples.(j);
      m.texps.(hole) <- m.texps.(j);
      shift j j
    end
    else shift hole j
  in
  let hole = shift i i in
  m.hashes.(hole) <- vacant;
  m.tuples.(hole) <- no_tuple;
  m.texps.(hole) <- Time.zero;
  m.count <- m.count - 1

let find m tuple ~hash =
  let i = slot m tuple ~hash in
  if held m i then Some m.texps.(i) else None

let remove m tuple ~hash =
  let i = slot m tuple ~hash in
  if held m i then clear m i

let fold f m acc =
  let acc = ref acc in
  for i = 0 to Array.length m.hashes - 1 do
    if held m i then acc := f m.tuples.(i) m.texps.(i) !acc
  done;
  !acc
