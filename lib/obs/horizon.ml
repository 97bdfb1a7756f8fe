let default_bounds =
  [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; max_int |]

let default_window = 16

type table = {
  name : string;
  bounds : int array;
  counts : int array;
}

let live tb = Array.fold_left ( + ) 0 tb.counts

let expiring_within tb d =
  let total = ref 0 in
  Array.iteri
    (fun i bound -> if bound <> max_int && bound <= d then total := !total + tb.counts.(i))
    tb.bounds;
  !total

let merge_tables a b =
  if a.name <> b.name then
    invalid_arg
      (Printf.sprintf "Horizon.merge_tables: %s vs %s" a.name b.name);
  if a.bounds <> b.bounds then
    invalid_arg ("Horizon.merge_tables: bucket bounds differ for " ^ a.name);
  { a with counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts }

let merge partials =
  let acc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun tb ->
         match Hashtbl.find_opt acc tb.name with
         | None -> Hashtbl.replace acc tb.name tb
         | Some prev -> Hashtbl.replace acc tb.name (merge_tables prev tb)))
    partials;
  Hashtbl.fold (fun _ tb tbs -> tb :: tbs) acc []
  |> List.sort (fun a b -> String.compare a.name b.name)

type report = {
  now : int;
  window : int;
  fanout_events : int;
  arrival_rate : float;
  expiration_rate : float;
  tables : table list;
  shards : (string * int) list;
}

let merge_reports = function
  | [] -> invalid_arg "Horizon.merge_reports: empty"
  | first :: rest as all ->
    { now = List.fold_left (fun acc r -> max acc r.now) first.now rest;
      window = List.fold_left (fun acc r -> max acc r.window) first.window rest;
      fanout_events = List.fold_left (fun acc r -> acc + r.fanout_events) 0 all;
      arrival_rate = List.fold_left (fun acc r -> acc +. r.arrival_rate) 0. all;
      expiration_rate =
        List.fold_left (fun acc r -> acc +. r.expiration_rate) 0. all;
      tables = merge (List.map (fun r -> r.tables) all);
      shards = List.concat_map (fun r -> r.shards) all
    }

let snapshot tb =
  let sum = ref 0 in
  Array.iteri
    (fun i bound -> if bound <> max_int then sum := !sum + (tb.counts.(i) * bound))
    tb.bounds;
  { Instrument.Histogram.bounds = tb.bounds;
    counts = tb.counts;
    sum = !sum;
    count = live tb
  }

let metrics r =
  [ { Registry.name = "expirel_horizon_rows";
      help =
        "Forecast: live rows by ticks-to-expiry, per table (+Inf also \
         holds never-expiring rows)";
      kind = Registry.Histogram_kind;
      scale = 1.0;
      samples =
        List.map
          (fun tb -> ([ ("table", tb.name) ], Registry.Histogram_sample (snapshot tb)))
          r.tables
    };
    { Registry.name = "expirel_horizon_fanout_events";
      help = "Subscription events the next ADVANCE window will deliver";
      kind = Registry.Gauge_kind;
      scale = 1.0;
      samples = [ ([], Registry.Gauge_sample (float_of_int r.fanout_events)) ]
    };
    { Registry.name = "expirel_horizon_window_ticks";
      help = "The forecast window (ticks) used for fan-out and storm rules";
      kind = Registry.Gauge_kind;
      scale = 1.0;
      samples = [ ([], Registry.Gauge_sample (float_of_int r.window)) ]
    };
    { Registry.name = "expirel_churn_rate";
      help = "Arrival vs expiration velocity, rows per tick over a \
              sliding window";
      kind = Registry.Gauge_kind;
      scale = 1.0;
      samples =
        [ ([ ("kind", "arrival") ], Registry.Gauge_sample r.arrival_rate);
          ([ ("kind", "expiration") ], Registry.Gauge_sample r.expiration_rate)
        ]
    }
  ]

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "horizon now=%d window=%d fanout=%d arrival=%.2f/t expiration=%.2f/t\n"
       r.now r.window r.fanout_events r.arrival_rate r.expiration_rate);
  List.iter
    (fun (shard, rows) ->
      Buffer.add_string buf (Printf.sprintf "shard %s: live=%d\n" shard rows))
    r.shards;
  List.iter
    (fun tb ->
      Buffer.add_string buf
        (Printf.sprintf "table %s: live=%d soon=%d\n" tb.name (live tb)
           (expiring_within tb r.window));
      Array.iteri
        (fun i bound ->
          let le = if bound = max_int then "+Inf" else string_of_int bound in
          Buffer.add_string buf
            (Printf.sprintf "  le=%s rows=%d\n" le tb.counts.(i)))
        tb.bounds)
    r.tables;
  (* Line-oriented, no trailing newline: callers embed this in REPL
     replies and log lines that add their own terminator. *)
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

module Churn = struct
  type sample = { tick : int; arrivals : int; expirations : int }

  type t = {
    window : int;
    mutable samples : sample list;  (* newest first; last is the baseline *)
  }

  let create ?(window = 64) () = { window; samples = [] }

  let observe t ~now ~arrivals ~expirations =
    let s = { tick = now; arrivals; expirations } in
    let samples =
      match t.samples with
      | newest :: rest when newest.tick = now -> s :: rest
      | l -> s :: l
    in
    (* Keep everything inside the window plus the first older sample:
       the rate denominator must span the whole window, not stop at its
       newest in-window edge. *)
    let rec prune = function
      | [] -> []
      | x :: rest when x.tick >= now - t.window -> x :: prune rest
      | x :: _ -> [ x ]
    in
    t.samples <- prune samples

  let rates t =
    match t.samples with
    | [] | [ _ ] -> (0., 0.)
    | newest :: rest ->
      let oldest = List.nth rest (List.length rest - 1) in
      let dt = newest.tick - oldest.tick in
      if dt <= 0 then (0., 0.)
      else
        ( float_of_int (newest.arrivals - oldest.arrivals) /. float_of_int dt,
          float_of_int (newest.expirations - oldest.expirations)
          /. float_of_int dt )
end
