type entry = {
  node : string;
  trace_id : string;
  name : string;
  started_at : float;
  total_us : int;
  spans : Trace.span list;
}

(* A slot's bytes: seq, total_us, 1 for a statement's trace, started_at,
   then trace_id, node and name, then the frozen spans.  Bytes.empty is
   a slot never written. *)
type t = {
  ring : Bytes.t array;
  mutable next : int;  (* write cursor *)
  mutable seq : int;
  w : Flat.t;  (* pointed at the slot being written *)
  mutex : Mutex.t;
}

let slot_bytes = 1024

(* Byte offsets of the header's fixed fields. *)
let seq_at = 0
let total_at = 8
let statement_at = 16
let origin_at = 24

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Trace_store.create: capacity";
  { ring = Array.make capacity Bytes.empty; next = 0; seq = 0;
    w = Flat.reader Bytes.empty; mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* A replication session's trace covers its first shipment, not a
   statement. *)
let replicate = "replicate "

let rec prefixed name i =
  i = String.length replicate
  || (i < String.length name && name.[i] = replicate.[i] && prefixed name (i + 1))

let statement name = not (prefixed name 0)

(* Under the lock: the next slot's header, written into its bytes. *)
let start t ~node ~trace_id ~name ~started_at ~total_us =
  Mutex.lock t.mutex;
  let b = t.ring.(t.next) in
  t.w.bytes <- (if Bytes.length b = 0 then Bytes.create slot_bytes else b);
  t.w.pos <- 0;
  Flat.add_int t.w t.seq;
  Flat.add_int t.w total_us;
  Flat.add_int t.w (if statement name then 1 else 0);
  Flat.add_float t.w started_at;
  Flat.add_string t.w trace_id;
  Flat.add_string t.w node;
  Flat.add_string t.w name

(* Keeps the slot (its bytes may have grown) and releases the lock. *)
let commit t =
  t.ring.(t.next) <- t.w.bytes;
  t.w.bytes <- Bytes.empty;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.seq <- t.seq + 1;
  Mutex.unlock t.mutex

(* A write that failed half way leaves its slot empty. *)
let abandon t e =
  t.ring.(t.next) <- Bytes.empty;
  t.w.bytes <- Bytes.empty;
  Mutex.unlock t.mutex;
  raise e

let record t (e : entry) =
  start t ~node:e.node ~trace_id:e.trace_id ~name:e.name
    ~started_at:e.started_at ~total_us:e.total_us;
  match Trace.freeze_spans t.w e.spans with
  | () -> commit t
  | exception ex -> abandon t ex

let finish t ~node ~name trace =
  start t ~node ~trace_id:(Trace.trace_id trace) ~name
    ~started_at:(Trace.started_at trace) ~total_us:(Trace.elapsed_us trace);
  match Trace.freeze t.w trace with
  | () -> commit t
  | exception ex -> abandon t ex

let seq b = Flat.int_at b seq_at
let total_us b = Flat.int_at b total_at

let entry_of b =
  let r = Flat.reader b in
  r.pos <- origin_at;
  let started_at = Flat.float r in
  let trace_id = Flat.string r in
  let node = Flat.string r in
  let name = Flat.string r in
  { node; trace_id; name; started_at; total_us = total_us b; spans = Trace.thaw r }

(* The first [n] written slots [keep] accepts, in [order], read. *)
let ranked t n ~keep order =
  locked t (fun () ->
      Array.fold_left
        (fun acc b -> if Bytes.length b > 0 && keep b then b :: acc else acc)
        [] t.ring
      |> List.sort order
      |> List.filteri (fun i _ -> i < n)
      |> List.map entry_of)

let newest a b = compare (seq b) (seq a)
let recent t n = ranked t n ~keep:(fun _ -> true) newest

let slowest t n =
  ranked t n
    ~keep:(fun b -> Flat.int_at b statement_at = 1)
    (fun a b ->
      match compare (total_us b) (total_us a) with
      | 0 -> newest a b
      | c -> c)

let by_trace_id t id =
  recent t max_int |> List.filter (fun e -> e.trace_id = id)
