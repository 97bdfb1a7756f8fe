(* The page is written straight into one buffer: a label set is escaped
   once per sample, a histogram's [le] labels once per metric. *)

let add_escaped buf ~quote s =
  if not (String.exists (fun c -> c = '\\' || c = '\n' || (quote && c = '"')) s) then
    Buffer.add_string buf s
  else
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' when quote -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s

(* A count's decimal digits, without the string [string_of_int] makes. *)
let rec add_count buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_count buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

(* Prometheus floats: integral values without a fractional part read
   better ("3" not "3."), everything else in shortest round-trip form. *)
let float_str v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0. && Float.sign_bit v then "-0" else string_of_int (int_of_float v)
  else Printf.sprintf "%.12g" v

(* [k1="v1",k2="v2"], escaped, without braces. *)
let labels_str = function
  | [] -> ""
  | bindings ->
    let buf = Buffer.create 32 in
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        add_escaped buf ~quote:true v;
        Buffer.add_char buf '"')
      bindings;
    Buffer.contents buf

(* [name{labels} value\n]; [labels] as [labels_str] renders them. *)
let add_line buf name labels value =
  Buffer.add_string buf name;
  if labels <> "" then begin
    Buffer.add_char buf '{';
    Buffer.add_string buf labels;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

(* One [le="..."] label per bucket bound. *)
let le_labels scale bounds =
  Array.map
    (fun bound ->
      "le=\""
      ^ (if bound = max_int then "+Inf" else float_str (float_of_int bound *. scale))
      ^ "\"")
    bounds

let add_histogram buf name ~bucket labels les (s : Instrument.Histogram.snapshot) scale =
  let cumulative = ref 0 in
  Array.iteri
    (fun i le ->
      cumulative := !cumulative + s.counts.(i);
      Buffer.add_string buf bucket;
      Buffer.add_char buf '{';
      if labels <> "" then begin
        Buffer.add_string buf labels;
        Buffer.add_char buf ','
      end;
      Buffer.add_string buf le;
      Buffer.add_string buf "} ";
      add_count buf !cumulative;
      Buffer.add_char buf '\n')
    les;
  add_line buf (name ^ "_sum") labels (float_str (float_of_int s.sum *. scale));
  add_line buf (name ^ "_count") labels (string_of_int s.count)

let render metrics =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (m : Registry.metric) ->
      Buffer.add_string buf "# HELP ";
      Buffer.add_string buf m.name;
      Buffer.add_char buf ' ';
      add_escaped buf ~quote:false m.help;
      Buffer.add_string buf "\n# TYPE ";
      Buffer.add_string buf m.name;
      Buffer.add_string buf
        (match m.kind with
         | Registry.Counter_kind -> " counter\n"
         | Registry.Gauge_kind -> " gauge\n"
         | Registry.Histogram_kind -> " histogram\n");
      let bucket = m.name ^ "_bucket" in
      (* The [le] labels of the last bounds seen: a family's histograms
         share one bounds array. *)
      let les = ref ([||], [||]) in
      List.iter
        (fun (bindings, sample) ->
          let labels = labels_str bindings in
          match sample with
          | Registry.Counter_sample v ->
            add_line buf m.name labels (float_str (float_of_int v *. m.scale))
          | Registry.Gauge_sample v -> add_line buf m.name labels (float_str (v *. m.scale))
          | Registry.Histogram_sample s ->
            let bounds, _ = !les in
            if not (bounds == s.bounds || bounds = s.bounds) then
              les := (s.bounds, le_labels m.scale s.bounds);
            add_histogram buf m.name ~bucket labels (snd !les) s m.scale)
        m.samples)
    metrics;
  Buffer.contents buf
