type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of Instrument.Histogram.snapshot

type kind = Counter_kind | Gauge_kind | Histogram_kind

type metric = {
  name : string;
  help : string;
  kind : kind;
  scale : float;
  samples : ((string * string) list * sample) list;
}

(* What we store per registered name: enough to rebuild [metric] at
   collection time.  The sampler closures for stored instruments only
   touch the instrument's own mutex; [Polled] closures are arbitrary
   user code and are treated as hostile (run outside our mutex, guarded
   per-callback). *)
type source =
  | Stored of (unit -> ((string * string) list * sample) list)
  | Polled of (unit -> float)
  | Custom of (unit -> ((string * string) list * sample) list)

type entry = { e_name : string; e_help : string; e_kind : kind; e_scale : float;
               e_source : source }

type t = { mutable entries : entry list (* reverse registration order *);
           mutex : Mutex.t }

let create () = { entries = []; mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let register t entry =
  locked t (fun () ->
      if List.exists (fun e -> e.e_name = entry.e_name) t.entries then
        invalid_arg ("Registry: duplicate metric name " ^ entry.e_name);
      t.entries <- entry :: t.entries)

let counter t ~name ~help =
  let c = Instrument.Counter.create () in
  register t
    { e_name = name; e_help = help; e_kind = Counter_kind; e_scale = 1.0;
      e_source =
        Stored (fun () -> [ ([], Counter_sample (Instrument.Counter.value c)) ]) };
  c

let gauge t ~name ~help =
  let g = Instrument.Gauge.create () in
  register t
    { e_name = name; e_help = help; e_kind = Gauge_kind; e_scale = 1.0;
      e_source =
        Stored
          (fun () ->
            [ ([], Gauge_sample (float_of_int (Instrument.Gauge.value g))) ]) };
  g

let gauge_fun t ~name ~help f =
  register t
    { e_name = name; e_help = help; e_kind = Gauge_kind; e_scale = 1.0;
      e_source = Polled f }

let custom t ?(scale = 1.0) ~name ~help ~kind sample =
  register t
    { e_name = name; e_help = help; e_kind = kind; e_scale = scale;
      e_source = Custom sample }

let histogram t ?(scale = 1.0) ?bounds ~name ~help () =
  let h = Instrument.Histogram.create ?bounds () in
  register t
    { e_name = name; e_help = help; e_kind = Histogram_kind; e_scale = scale;
      e_source =
        Stored
          (fun () -> [ ([], Histogram_sample (Instrument.Histogram.snapshot h)) ]) };
  h

let family_sampler fam sample_of =
  Stored
    (fun () ->
      Instrument.Family.fold fam ~init:[] ~f:(fun bindings inst acc ->
          (bindings, sample_of inst) :: acc)
      |> List.rev)

let counter_family t ~name ~help ~labels =
  let fam =
    Instrument.Family.create ~labels ~make:Instrument.Counter.create
  in
  register t
    { e_name = name; e_help = help; e_kind = Counter_kind; e_scale = 1.0;
      e_source =
        family_sampler fam (fun c -> Counter_sample (Instrument.Counter.value c)) };
  fam

let gauge_family t ~name ~help ~labels =
  let fam = Instrument.Family.create ~labels ~make:Instrument.Gauge.create in
  register t
    { e_name = name; e_help = help; e_kind = Gauge_kind; e_scale = 1.0;
      e_source =
        family_sampler fam (fun g ->
            Gauge_sample (float_of_int (Instrument.Gauge.value g))) };
  fam

let histogram_family t ?(scale = 1.0) ?bounds ~name ~help ~labels () =
  let fam =
    Instrument.Family.create ~labels ~make:(fun () ->
        Instrument.Histogram.create ?bounds ())
  in
  register t
    { e_name = name; e_help = help; e_kind = Histogram_kind; e_scale = scale;
      e_source =
        family_sampler fam (fun h ->
            Histogram_sample (Instrument.Histogram.snapshot h)) };
  fam

let collect t =
  (* Grab the entry list under the mutex, then run every sampler
     outside it: polled callbacks may take unrelated locks (the server's
     replication source takes server state locks), and a raising
     callback must not poison the registry or later collections. *)
  let entries = locked t (fun () -> List.rev t.entries) in
  List.map
    (fun e ->
      let samples =
        match e.e_source with
        | Stored sample -> sample ()
        | Polled f -> ( try [ ([], Gauge_sample (f ())) ] with _ -> [])
        | Custom sample -> ( try sample () with _ -> [])
      in
      { name = e.e_name; help = e.e_help; kind = e.e_kind; scale = e.e_scale;
        samples })
    entries

let find metrics name = List.find_opt (fun m -> m.name = name) metrics

let values metrics name =
  match find metrics name with
  | None -> []
  | Some m ->
      List.map
        (fun (_, s) ->
          match s with
          | Counter_sample n -> float_of_int n *. m.scale
          | Gauge_sample v -> v *. m.scale
          | Histogram_sample snap ->
              float_of_int snap.Instrument.Histogram.count)
        m.samples
