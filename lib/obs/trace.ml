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

let format_trace_id ~us ~pid ~seq =
  Printf.sprintf "%013Lx-%06x-%08x" us (pid land 0xff_ffff)
    (seq land 0xffff_ffff)

let fresh_trace_id () =
  format_trace_id
    ~us:(Int64.of_float (Unix.gettimeofday () *. 1e6))
    ~pid:(Unix.getpid ())
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
