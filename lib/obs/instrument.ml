(* Thread-safe instruments.  Counters and gauges are atomics.  A
   histogram's observation locks its mutex around a few array writes
   that cannot raise; the critical sections that can (a family's
   lookup, a snapshot's copies) run under [locked], which uses
   Fun.protect so that an exception raised inside never leaves the
   mutex held (the bug the old Server.Metrics had). *)

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0

  let add t n =
    if n < 0 then invalid_arg "Counter.add: negative increment";
    ignore (Atomic.fetch_and_add t n : int)

  let incr t = Atomic.incr t
  let value t = Atomic.get t
end

module Gauge = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let set t n = Atomic.set t n
  let add t n = ignore (Atomic.fetch_and_add t n : int)
  let value t = Atomic.get t
end

module Histogram = struct
  (* The 500_000 bound is the one missing from the original server
     histogram, which jumped from 250 ms straight to 1 s. *)
  let default_latency_bounds_us =
    [| 50; 100; 250; 500; 1_000; 2_500; 5_000; 10_000; 25_000; 50_000;
       100_000; 250_000; 500_000; 1_000_000; max_int |]

  type t = {
    bounds : int array;
    counts : int array;
    mutable sum : int;
    mutable count : int;
    mutex : Mutex.t;
  }

  let create ?(bounds = default_latency_bounds_us) () =
    if Array.length bounds = 0 then invalid_arg "Histogram.create: no bounds";
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Histogram.create: bounds not strictly increasing")
      bounds;
    let bounds =
      if bounds.(Array.length bounds - 1) = max_int then Array.copy bounds
      else Array.append bounds [| max_int |]
    in
    { bounds;
      counts = Array.make (Array.length bounds) 0;
      sum = 0;
      count = 0;
      mutex = Mutex.create () }

  let bucket_of t v =
    let last = Array.length t.bounds - 1 and i = ref 0 in
    while !i < last && v > t.bounds.(!i) do
      incr i
    done;
    !i

  let observe t v =
    let i = bucket_of t v in
    Mutex.lock t.mutex;
    t.counts.(i) <- t.counts.(i) + 1;
    t.sum <- t.sum + v;
    t.count <- t.count + 1;
    Mutex.unlock t.mutex

  type snapshot = {
    bounds : int array;
    counts : int array;
    sum : int;
    count : int;
  }

  let snapshot t =
    locked t.mutex (fun () ->
        { bounds = Array.copy t.bounds;
          counts = Array.copy t.counts;
          sum = t.sum;
          count = t.count })
end

module Family = struct
  type 'a t = {
    labels : string list;
    make : unit -> 'a;
    table : (string list, 'a) Hashtbl.t;
    mutex : Mutex.t;
  }

  let create ~labels ~make =
    if labels = [] then invalid_arg "Family.create: empty label list";
    if List.length (List.sort_uniq compare labels) <> List.length labels then
      invalid_arg "Family.create: duplicate label names";
    { labels; make; table = Hashtbl.create 8; mutex = Mutex.create () }

  let label_names t = t.labels

  let labelled t values =
    locked t.mutex (fun () ->
        (* The arity check raises inside the critical section on
           purpose: it exercises the Fun.protect path, and keeping it
           under the lock makes the check-then-create atomic. *)
        if List.length values <> List.length t.labels then
          invalid_arg "Family.labelled: label value count mismatch";
        match Hashtbl.find_opt t.table values with
        | Some inst -> inst
        | None ->
            let inst = t.make () in
            Hashtbl.add t.table values inst;
            inst)

  let fold t ~init ~f =
    let entries =
      locked t.mutex (fun () ->
          Hashtbl.fold (fun values inst acc -> (values, inst) :: acc) t.table [])
    in
    let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
    List.fold_left
      (fun acc (values, inst) -> f (List.combine t.labels values) inst acc)
      init entries
end
