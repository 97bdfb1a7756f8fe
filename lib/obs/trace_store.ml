type entry = {
  node : string;
  trace_id : string;
  name : string;
  started_at : float;
  total_us : int;
  spans : Trace.span list;
}

type slot = { entry : entry; seq : int }

type t = {
  ring : slot option array;
  mutable next : int;  (* write cursor *)
  mutable seq : int;
  mutex : Mutex.t;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Trace_store.create: capacity";
  { ring = Array.make capacity None; next = 0; seq = 0;
    mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t entry =
  locked t (fun () ->
      t.ring.(t.next) <- Some { entry; seq = t.seq };
      t.next <- (t.next + 1) mod Array.length t.ring;
      t.seq <- t.seq + 1)

let finish t ~node ~name trace =
  record t
    { node; trace_id = Trace.trace_id trace; name;
      started_at = Trace.started_at trace;
      total_us = Trace.elapsed_us trace; spans = Trace.spans trace }

(* The first [n] retained slots [keep] accepts, in [order]. *)
let ranked t n ~keep order =
  let slots =
    locked t (fun () ->
        Array.fold_left
          (fun acc -> function Some s when keep s.entry -> s :: acc | _ -> acc)
          [] t.ring)
  in
  List.filteri (fun i _ -> i < n) (List.sort order slots) |> List.map (fun s -> s.entry)

let newest (a : slot) (b : slot) = compare b.seq a.seq
let recent t n = ranked t n ~keep:(fun _ -> true) newest

(* A replication session's trace covers its first shipment, not a
   statement. *)
let statement e = not (String.starts_with ~prefix:"replicate " e.name)

let slowest t n =
  ranked t n ~keep:statement (fun a b ->
      match compare b.entry.total_us a.entry.total_us with
      | 0 -> newest a b
      | c -> c)

let by_trace_id t id =
  recent t max_int |> List.filter (fun e -> e.trace_id = id)
