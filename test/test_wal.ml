open Expirel_core
open Expirel_storage

let fin = Time.of_int

let sample_records =
  [ Wal.Create_table { name = "pol"; columns = [ "uid"; "deg" ] };
    Wal.Create_table { name = "weird name"; columns = [ "a%b"; "c d" ] };
    Wal.Insert { table = "pol"; tuple = Tuple.ints [ 1; 25 ]; texp = fin 10 };
    Wal.Insert
      { table = "pol";
        tuple =
          Tuple.of_list
            [ Value.Str "spaces and %percent\nnewline";
              Value.Float 3.25;
              Value.Bool true;
              Value.Null ];
        texp = Time.Inf
      };
    Wal.Delete { table = "pol"; tuple = Tuple.ints [ 1; 25 ] };
    Wal.Advance (fin 42);
    Wal.Drop_table "pol" ]

let test_roundtrip () =
  List.iter
    (fun record ->
      let bytes = Wal.encode record in
      match Wal.decode bytes with
      | Ok decoded ->
        Alcotest.(check string) "re-encoding stable" bytes (Wal.encode decoded)
      | Error msg -> Alcotest.failf "decode failed on %S: %s" bytes msg)
    sample_records

(* Every strict prefix of a record's bytes, the empty one included. *)
let strict_prefixes s = List.init (String.length s) (fun n -> String.sub s 0 n)

let test_decode_errors () =
  List.iter
    (fun bytes ->
      match Wal.decode bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode error for %S" bytes)
    ([ ""; "nonsense"; "insert pol"; "insert pol notatime i1"; "advance x";
       "insert pol 5 q1"; "create pol"; "insert pol 5 i1 %Z" ]
     @ List.concat_map (fun r -> strict_prefixes (Wal.encode r)) sample_records)

let with_temp_log f =
  let dir = Filename.temp_dir "expirel" "wal" in
  let path = Filename.concat dir "test.log" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir dir)
    (fun () -> f path)

let write_log path records =
  let w = Wal.Writer.create path ~base:0 in
  List.iter (Wal.Writer.write w) records;
  Wal.Writer.close w

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* The log's good prefix and the records replayed from it, in order. *)
let replay path =
  let replayed = ref [] in
  match Wal.replay path ~f:(fun _ r -> replayed := r :: !replayed) with
  | Ok log -> (log, List.rev !replayed)
  | Error e -> Alcotest.failf "replay refused %s: %s" path e

let encodings = List.map Wal.encode

let test_write_replay () =
  with_temp_log (fun path ->
      write_log path sample_records;
      let log, replayed = replay path in
      Alcotest.(check int) "all records" (List.length sample_records) log.records;
      Alcotest.(check int) "the whole file is good" (String.length (read_file path))
        log.length;
      Alcotest.(check (list string)) "in order, identical"
        (encodings sample_records) (encodings replayed))

let test_torn_tail () =
  with_temp_log (fun path ->
      write_log path sample_records;
      let good = String.length (read_file path) in
      (* Simulate a crash mid-append. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "insert pol 9 i1 i2 TRUNC";
      close_out oc;
      let log, _ = replay path in
      Alcotest.(check int) "clean prefix only" (List.length sample_records) log.records;
      Alcotest.(check int) "good prefix ends before the tail" good log.length)

let test_missing_file () =
  let log, _ = replay "/nonexistent/path/wal.log" in
  Alcotest.(check int) "missing file is empty" 0 log.records

let find_sub sub s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let flip data ~at ~mask =
  String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor mask) else c) data

let test_flipped_byte () =
  let sealed = Frame.seal "123456789" in
  Alcotest.(check string) "CRC-32 check value" "\xcb\xf4\x39\x26"
    (String.sub sealed (String.length sealed - 4) 4);
  with_temp_log (fun path ->
      write_log path sample_records;
      (* Turn the third record's last value, 25, into -26: bytes that
         still decode, which only the checksum tells from the written
         ones. *)
      let target = Wal.encode (List.nth sample_records 2) in
      let data = read_file path in
      write_file path
        (flip data ~at:(find_sub target data + String.length target - 1) ~mask:1);
      let log, replayed = replay path in
      Alcotest.(check int) "the records before it" 2 log.records;
      Alcotest.(check (list string)) "replayed unchanged"
        (encodings (List.filteri (fun i _ -> i < 2) sample_records))
        (encodings replayed))

let record_gen =
  let open QCheck2.Gen in
  let name = map (String.map (fun c -> c)) (string_size ~gen:printable (int_range 1 8)) in
  oneof
    [ (let* n = name in
       let* cols = list_size (int_range 1 3) name in
       return (Wal.Create_table { name = n; columns = cols }));
      (let* n = name in
       let* t = Generators.tuple ~arity:2 in
       let* e = Generators.texp in
       return (Wal.Insert { table = n; tuple = t; texp = e }));
      (let* n = name in
       let* t = Generators.tuple ~arity:2 in
       return (Wal.Delete { table = n; tuple = t }));
      map (fun n -> Wal.Advance (Time.of_int n)) (int_range 0 1000);
      map (fun n -> Wal.Drop_table n) name ]

let prop_roundtrip =
  Generators.qtest "encode/decode round-trips arbitrary records" ~count:300
    record_gen (fun record ->
      match Wal.decode (Wal.encode record) with
      | Ok decoded -> Wal.encode decoded = Wal.encode record
      | Error _ -> false)

(* A log of random records, cut at every length past its header, replays
   exactly the records whole before the cut; one byte flipped anywhere in
   record k's entry (prefix, bytes or checksum) replays exactly the
   records before k.  A flipped length prefix is caught by the checksum
   of the misaligned bytes, so that half holds but for a 2^-32 chance. *)
let prop_torn_and_flipped =
  Generators.qtest "prefixes and flipped bytes replay the records before them"
    ~count:40
    QCheck2.Gen.(
      triple (list_size (int_range 1 5) record_gen) (int_bound 1_000_000)
        (int_range 1 255))
    (fun (records, spot, mask) ->
      with_temp_log (fun path ->
          write_log path records;
          let data = read_file path in
          let sizes = List.map (fun r -> String.length (Wal.encode r) + 8) records in
          let header = String.length data - List.fold_left ( + ) 0 sizes in
          (* Entry k ends at the k-th running sum past the header. *)
          let _, ends =
            List.fold_left_map (fun at size -> (at + size, at + size)) header sizes
          in
          let replayed_with data =
            write_file path data;
            (fst (replay path)).records
          in
          let whole_before cut = List.length (List.filter (fun e -> e <= cut) ends) in
          List.for_all
            (fun cut -> replayed_with (String.sub data 0 cut) = whole_before cut)
            (List.init (String.length data - header) (fun i -> header + i))
          && List.for_all
               (fun k ->
                 let size = List.nth sizes k in
                 let at = List.nth ends k - size + (spot mod size) in
                 replayed_with (flip data ~at ~mask) = k)
               (List.init (List.length records) Fun.id)))

let suite =
  [ Alcotest.test_case "round-trips (escaping included)" `Quick test_roundtrip;
    Alcotest.test_case "malformed lines rejected" `Quick test_decode_errors;
    Alcotest.test_case "write then replay" `Quick test_write_replay;
    Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail;
    Alcotest.test_case "missing log file" `Quick test_missing_file;
    Alcotest.test_case "a flipped byte stops replay at the last good record" `Quick
      test_flipped_byte;
    prop_roundtrip;
    prop_torn_and_flipped ]
