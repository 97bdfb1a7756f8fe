type span = {
  id : int;
  parent : int option;
  name : string;
  start_us : int;
  duration_us : int;
  labels : (string * string) list;
}

(* An open span.  Labels accumulate in reverse; the frame is turned into
   a [span] when its [span] call returns. *)
type frame = {
  f_id : int;
  f_parent : int option;
  f_name : string;
  f_start_us : int;
  mutable f_labels : (string * string) list;
}

type t = {
  trace_id : string;
  root_parent : int option;
  t0 : float;
  mutable next_id : int;
  mutable open_frames : frame list;  (* innermost first *)
  mutable recorded : span list;  (* reverse order *)
}

let now_us t = int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e6)

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

let fresh_trace_id () =
  format_id
    ~us:(int_of_float (Unix.gettimeofday () *. 1e6))
    ~pid
    ~seq:(Atomic.fetch_and_add id_counter 1)

let create ?trace_id ?parent_span () =
  let trace_id =
    match trace_id with Some id -> id | None -> fresh_trace_id ()
  in
  { trace_id; root_parent = parent_span; t0 = Unix.gettimeofday ();
    next_id = 0; open_frames = []; recorded = [] }

let trace_id t = t.trace_id
let parent_span t = t.root_parent
let started_at t = t.t0

let current_parent t =
  match t.open_frames with
  | f :: _ -> Some f.f_id
  | [] -> t.root_parent

let record t ~name ~start_us ~duration_us =
  t.next_id <- t.next_id + 1;
  t.recorded <-
    { id = t.next_id; parent = current_parent t; name; start_us;
      duration_us; labels = [] }
    :: t.recorded

let span trace name f =
  match trace with
  | None -> f ()
  | Some t ->
      t.next_id <- t.next_id + 1;
      let frame =
        { f_id = t.next_id; f_parent = current_parent t; f_name = name;
          f_start_us = now_us t; f_labels = [] }
      in
      t.open_frames <- frame :: t.open_frames;
      Fun.protect
        ~finally:(fun () ->
          (match t.open_frames with
          | f :: rest when f == frame -> t.open_frames <- rest
          | frames ->
              (* Defensive: an ill-nested [record]/raise left stale
                 frames; drop everything down to and including ours. *)
              t.open_frames <-
                List.filter (fun f -> f != frame) frames);
          t.recorded <-
            { id = frame.f_id; parent = frame.f_parent;
              name = frame.f_name; start_us = frame.f_start_us;
              duration_us = now_us t - frame.f_start_us;
              labels = List.rev frame.f_labels }
            :: t.recorded)
        f

let label trace k v =
  match trace with
  | None -> ()
  | Some t -> (
      match t.open_frames with
      | [] -> ()
      | f :: _ -> f.f_labels <- (k, v) :: f.f_labels)

let spans t = List.rev t.recorded
let elapsed_us t = now_us t

let self_us all s =
  let children =
    List.fold_left
      (fun acc c ->
        if c.parent = Some s.id then acc + c.duration_us else acc)
      0 all
  in
  max 0 (s.duration_us - children)
