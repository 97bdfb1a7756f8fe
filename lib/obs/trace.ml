type span = {
  id : int;
  parent : int option;
  name : string;
  start_us : int;
  duration_us : int;
  labels : (string * string) list;
}

(* ---------- interned names ---------- *)

type name = int

let names_lock = Mutex.create ()
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64

(* id -> string, replaced by a larger copy when full; a reader that
   got an id sees an array holding it. *)
let names = Atomic.make (Array.make 64 "")

let name s =
  Mutex.lock names_lock;
  let n =
    match Hashtbl.find_opt name_ids s with
    | Some n -> n
    | None ->
      let n = Hashtbl.length name_ids in
      (* A name is 28 bits of an event's leading word. *)
      if n >= 1 lsl 28 then begin
        Mutex.unlock names_lock;
        failwith "Trace.name: too many names"
      end;
      let a = Atomic.get names in
      let a =
        if n < Array.length a then a
        else begin
          let b = Array.make (2 * n) "" in
          Array.blit a 0 b 0 n;
          b
        end
      in
      a.(n) <- s;
      Atomic.set names a;
      Hashtbl.add name_ids s n;
      n
  in
  Mutex.unlock names_lock;
  n

let name_string n = (Atomic.get names).(n)

(* ---------- the recorder ---------- *)

(* Events are appended to one int array.  Each leads with a word
   packing a 3-bit tag, a name or key (28 bits) and, above bit 31, a
   span id or a label's link:
     open    [id|name|0; start_us; enclosing open's offset; newest label's offset]
     close   [its open's offset|1; duration_us]
     record  [id|name|2; start_us; duration_us; enclosing open's offset]
     count   [previous label's offset + 1|key|3; value]
     label   [previous label's offset + 1|key|4; index into [strings]]
   An offset of -1 means none.  The open spans chain through their
   enclosing offsets, and each span's labels through their previous
   ones, so closing a span, labelling the innermost one and reading
   a span's labels need no other structure. *)
let ev_open = 0
let ev_close = 1
let ev_record = 2
let ev_count = 3
let ev_label = 4

let pack tag ~low ~high = (high lsl 31) lor (low lsl 3) lor tag
let tag w = w land 7
let low w = (w lsr 3) land 0xfff_ffff
let high w = w lsr 31

let event_words w = if tag w = ev_open || tag w = ev_record then 4 else 2

(* A point request's events (8 spans, 6 labels) fit without growing. *)
let initial_words = 64

type t = {
  trace_id : string;
  root_parent : int option;
  t0 : float;
  mutable log : int array;
  mutable len : int;
  mutable next_id : int;
  mutable closed : int;  (* close and record events *)
  mutable top : int;  (* the innermost open span's offset, or -1 *)
  mutable strings : string list;  (* [label] values, newest first *)
  mutable nstrings : int;
  mutable mark : int;
  mutable mark_us : int;
      (* the clock as read at [create] or by the close event that ends
         at [mark]: a span opened while the log still ends there starts
         at that read instead of reading the clock again *)
}

(* [Unix.gettimeofday] through its unboxed primitive: reading the clock
   allocates nothing. *)
external gettimeofday : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

let now_us t = int_of_float ((gettimeofday () -. t.t0) *. 1e6)

(* Process-wide counter folded into fresh trace ids so two traces
   created in the same microsecond still differ. *)
let id_counter = Atomic.make 0

let hex_digits = "0123456789abcdef"

(* The low [width] hex digits of [v], most significant first. *)
let put_hex b ~pos ~width v =
  for i = 0 to width - 1 do
    Bytes.unsafe_set b
      (pos + width - 1 - i)
      (String.unsafe_get hex_digits ((v lsr (4 * i)) land 0xf))
  done

(* 13 hex digits of microseconds (2^52 us reach past the year 2100),
   6 of the pid and 8 of the counter: always 29 characters. *)
let format_id ~us ~pid ~seq =
  let b = Bytes.create 29 in
  put_hex b ~pos:0 ~width:13 us;
  Bytes.unsafe_set b 13 '-';
  put_hex b ~pos:14 ~width:6 pid;
  Bytes.unsafe_set b 20 '-';
  put_hex b ~pos:21 ~width:8 seq;
  Bytes.unsafe_to_string b

let format_trace_id ~us ~pid ~seq = format_id ~us:(Int64.to_int us) ~pid ~seq

(* Read once: a fresh id per request needs no syscall. *)
let pid = Unix.getpid ()

let create ?trace_id ?parent_span () =
  let t0 = gettimeofday () in
  let trace_id =
    match trace_id with
    | Some id -> id
    | None ->
      format_id ~us:(int_of_float (t0 *. 1e6)) ~pid
        ~seq:(Atomic.fetch_and_add id_counter 1)
  in
  { trace_id; root_parent = parent_span; t0;
    log = Array.make initial_words 0; len = 0; next_id = 0; closed = 0;
    top = -1; strings = []; nstrings = 0; mark = 0; mark_us = 0 }

let trace_id t = t.trace_id
let parent_span t = t.root_parent
let started_at t = t.t0

let current_parent t =
  if t.top < 0 then t.root_parent else Some (high t.log.(t.top))

(* Room for [n] more words; returns the log to write them into. *)
let reserve t n =
  if t.len + n > Array.length t.log then begin
    let a = Array.make (max (t.len + n) (2 * Array.length t.log)) 0 in
    Array.blit t.log 0 a 0 t.len;
    t.log <- a
  end;
  t.log

let record t ~name ~start_us ~duration_us =
  let log = reserve t 4 and o = t.len in
  t.next_id <- t.next_id + 1;
  log.(o) <- pack ev_record ~low:name ~high:t.next_id;
  log.(o + 1) <- start_us;
  log.(o + 2) <- duration_us;
  log.(o + 3) <- t.top;
  t.len <- o + 4;
  t.closed <- t.closed + 1

let open_span t name =
  let log = reserve t 4 and o = t.len in
  t.next_id <- t.next_id + 1;
  log.(o) <- pack ev_open ~low:name ~high:t.next_id;
  log.(o + 1) <- (if o = t.mark then t.mark_us else now_us t);
  log.(o + 2) <- t.top;
  log.(o + 3) <- -1;
  t.len <- o + 4;
  t.top <- o;
  o

(* Closing the span opened at [o] also drops any frame left open above
   it: the innermost open span becomes the one enclosing [o]. *)
let close_span t o =
  let now = now_us t in
  let log = reserve t 2 and c = t.len in
  log.(c) <- (o lsl 3) lor ev_close;
  log.(c + 1) <- now - log.(o + 1);
  t.len <- c + 2;
  t.mark <- c + 2;
  t.mark_us <- now;
  t.closed <- t.closed + 1;
  t.top <- log.(o + 2)

let span trace name f =
  match trace with
  | None -> f ()
  | Some t -> (
    let o = open_span t name in
    match f () with
    | v ->
      close_span t o;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span t o;
      Printexc.raise_with_backtrace e bt)

let add_label t key tag v =
  if t.top >= 0 then begin
    let log = reserve t 2 and l = t.len in
    log.(l) <- pack tag ~low:key ~high:(log.(t.top + 3) + 1);
    log.(l + 1) <- v;
    log.(t.top + 3) <- l;
    t.len <- l + 2
  end

let count trace key n =
  match trace with None -> () | Some t -> add_label t key ev_count n

let label trace key v =
  match trace with
  | Some t when t.top >= 0 ->
    t.strings <- v :: t.strings;
    add_label t key ev_label t.nstrings;
    t.nstrings <- t.nstrings + 1
  | Some _ | None -> ()

let elapsed_us t = now_us t

(* The closed and recorded spans, read off their events: a close event
   at [i] points at its open event [h], which holds the span's id, name
   and start where a record event at [i] holds its own. *)
let is_span w = tag w = ev_close || tag w = ev_record
let head i w = if tag w = ev_close then w lsr 3 else i
let duration log i w = if tag w = ev_close then log.(i + 1) else log.(i + 2)
let enclosing log h = if tag log.(h) = ev_record then log.(h + 3) else log.(h + 2)
let newest_label log w = if tag w = ev_close then log.((w lsr 3) + 3) else -1

let iter_self t f =
  (* Each span's children's durations, summed by parent id: ids are
     1 .. next_id, and a parent outside that range is a remote span. *)
  let log = t.log and children = Array.make (t.next_id + 1) 0 in
  let root = match t.root_parent with Some p -> p | None -> -1 in
  let i = ref 0 in
  while !i < t.len do
    let w = log.(!i) in
    if is_span w then begin
      let e = enclosing log (head !i w) in
      let p = if e >= 0 then high log.(e) else root in
      if p >= 0 && p <= t.next_id then children.(p) <- children.(p) + duration log !i w
    end;
    i := !i + event_words w
  done;
  i := 0;
  while !i < t.len do
    let w = log.(!i) in
    if is_span w then begin
      let h = log.(head !i w) in
      f (low h) (Int.max 0 (duration log !i w - children.(high h)))
    end;
    i := !i + event_words w
  done

let self_us all s =
  let children =
    List.fold_left
      (fun acc c ->
        if c.parent = Some s.id then acc + c.duration_us else acc)
      0 all
  in
  max 0 (s.duration_us - children)

(* ---------- frozen spans ----------

   A count of spans, then per span: id; labels * 2 + (1 if it has a
   parent); the parent, when it has one; name; start_us; duration_us;
   and per label its key * 2 + (1 for a string value) followed by the
   value, an int or a string. *)

let add_head w ~id ~labels ~has_parent parent =
  Flat.add_int w id;
  if has_parent then begin
    Flat.add_int w ((labels lsl 1) lor 1);
    Flat.add_int w parent
  end
  else Flat.add_int w (labels lsl 1)

let rec labels_after log l n = if l < 0 then n else labels_after log (high log.(l) - 1) (n + 1)

(* Oldest label first: the chain runs newest first. *)
let rec freeze_labels w log strings l =
  if l >= 0 then begin
    let w0 = log.(l) in
    freeze_labels w log strings (high w0 - 1);
    if tag w0 = ev_count then begin
      Flat.add_int w (low w0 lsl 1);
      Flat.add_int w log.(l + 1)
    end
    else begin
      Flat.add_int w ((low w0 lsl 1) lor 1);
      Flat.add_string w strings.(log.(l + 1))
    end
  end

let freeze w t =
  let strings = Array.of_list (List.rev t.strings) and log = t.log in
  Flat.add_int w t.closed;
  let i = ref 0 in
  while !i < t.len do
    let w0 = log.(!i) in
    if is_span w0 then begin
      let h = head !i w0 and l = newest_label log w0 in
      let id = high log.(h) and labels = labels_after log l 0 and e = enclosing log h in
      (if e >= 0 then add_head w ~id ~labels ~has_parent:true (high log.(e))
       else
         match t.root_parent with
         | Some p -> add_head w ~id ~labels ~has_parent:true p
         | None -> add_head w ~id ~labels ~has_parent:false 0);
      Flat.add_int w (low log.(h));
      Flat.add_int w log.(h + 1);
      Flat.add_int w (duration log !i w0);
      freeze_labels w log strings l
    end;
    i := !i + event_words w0
  done

let freeze_spans w spans =
  Flat.add_int w (List.length spans);
  List.iter
    (fun s ->
      let labels = List.length s.labels in
      (match s.parent with
       | Some p -> add_head w ~id:s.id ~labels ~has_parent:true p
       | None -> add_head w ~id:s.id ~labels ~has_parent:false 0);
      Flat.add_int w (name s.name);
      Flat.add_int w s.start_us;
      Flat.add_int w s.duration_us;
      List.iter
        (fun (k, v) ->
          Flat.add_int w ((name k lsl 1) lor 1);
          Flat.add_string w v)
        s.labels)
    spans

let thaw r =
  let names = Atomic.get names in
  let rec labels n acc =
    if n = 0 then List.rev acc
    else
      let k = Flat.int r in
      let v = if k land 1 = 1 then Flat.string r else string_of_int (Flat.int r) in
      labels (n - 1) ((names.(k lsr 1), v) :: acc)
  in
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      let id = Flat.int r in
      let head = Flat.int r in
      let parent = if head land 1 = 1 then Some (Flat.int r) else None in
      let name = names.(Flat.int r) in
      let start_us = Flat.int r in
      let duration_us = Flat.int r in
      let labels = labels (head lsr 1) [] in
      go (n - 1) ({ id; parent; name; start_us; duration_us; labels } :: acc)
  in
  go (Flat.int r) []

let spans t =
  let w = Flat.create (16 * (t.len + 1)) in
  freeze w t;
  thaw (Flat.reader w.bytes)
