(* Experiment exp-durable: write-ahead logging and checkpointing for
   expiring data.  Expiration acts as free compaction — a checkpoint
   writes only live tuples, so recovery cost tracks the live set, not
   the insert history.

   Expected shape: recovery from log replays every record ever written;
   recovery from checkpoint replays only the survivors; with short TTLs
   the checkpoint is a small fraction of the history. *)

open Expirel_core
open Expirel_storage
open Expirel_workload

let run_history ~dir ~events ~timeout =
  let t = Durable.open_dir dir in
  Durable.write t (Wal.Create_table { name = "sessions"; columns = Sessions.columns });
  List.iter
    (fun event ->
      let at = Time.of_int (Sessions.event_time event) in
      if Time.(at > Durable.now t) then Durable.write t (Wal.Advance at);
      Sessions.apply_event ~timeout
        ~insert:(fun tuple ~texp ->
          Durable.write t (Wal.Insert { table = "sessions"; tuple; texp }))
        event)
    events;
  t

let size_of path =
  if Sys.file_exists path then
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  else 0

let with_temp_dir f =
  let dir = Filename.temp_dir "expirel" "bench" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* The median of five reopens: one replay takes milliseconds, so a
   single timing is mostly noise. *)
let reopen_ms dir =
  let times =
    List.init 5 (fun _ ->
        snd (Bench_util.time_it (fun () -> Durable.close (Durable.open_dir dir))))
  in
  List.nth (List.sort compare times) 2 *. 1e3

let sweep () =
  Bench_util.section "Experiment exp-durable: WAL, checkpoints and recovery";
  let rows =
    List.map
      (fun (key, label, logins, timeout) ->
        with_temp_dir (fun dir ->
            let rng = Bench_util.rng 95 in
            let events =
              Sessions.timeline ~rng ~users:100 ~logins ~horizon:2000
                ~activity_rate:1.5
            in
            let t = run_history ~dir ~events ~timeout in
            let live =
              Relation.cardinal
                (Database.snapshot (Durable.database t) "sessions")
            in
            let wal_records = Durable.wal_records t in
            let wal_bytes = size_of (Filename.concat dir "wal.log") in
            let replay_log_ms = reopen_ms dir in
            let snapshot_records = Durable.checkpoint t in
            let snapshot_bytes = size_of (Filename.concat dir "snapshot.log") in
            let replay_snap_ms = reopen_ms dir in
            Durable.close t;
            let metric name = Bench_util.metric (key ^ "_" ^ name) in
            metric "wal_bytes_per_record"
              (float_of_int wal_bytes /. float_of_int wal_records);
            metric "replay_wal_ms" replay_log_ms;
            metric "snapshot_bytes" (float_of_int snapshot_bytes);
            metric "replay_snapshot_ms" replay_snap_ms;
            [ label;
              string_of_int (List.length events);
              string_of_int live;
              string_of_int wal_records;
              string_of_int wal_bytes;
              Bench_util.f2 replay_log_ms;
              string_of_int snapshot_records;
              string_of_int snapshot_bytes;
              Bench_util.f2 replay_snap_ms ]))
      [ "ttl20", "short sessions (ttl 20)", 2_000, 20;
        "ttl20_x4", "short sessions (ttl 20) x4", 8_000, 20;
        "ttl500", "long sessions (ttl 500)", 2_000, 500 ]
  in
  Bench_util.table
    ~headers:[ "workload"; "events"; "live rows"; "wal records"; "wal bytes";
               "replay wal ms"; "snapshot records"; "snapshot bytes";
               "replay snap ms" ]
    rows;
  print_endline
    "\nShape check: the checkpoint holds only live tuples, so with short\n\
     TTLs it is orders of magnitude smaller than the history and recovery\n\
     becomes near-instant — expiration doubles as compaction."

let run_all () = sweep ()
