open Expirel_core

type t = {
  dir : string;
  db : Database.t;
  mutable writer : Wal.Writer.t;
  mutable pending : int;  (* records in wal.log since last checkpoint *)
  mutable base : int;  (* position snapshot.log corresponds to *)
  mutable position : int;  (* records ever logged; the stream head *)
  tail : Wal.record Queue.t;  (* most recent records, oldest first *)
  mutable tail_base : int;  (* position of the front of [tail] *)
  retention : int;
}

let snapshot_path dir = Filename.concat dir "snapshot.log"
let wal_path dir = Filename.concat dir "wal.log"

(* Replay semantics: a record the state refuses is skipped.  A snapshot
   from the past carries rows and clock moves the clock has overtaken. *)
let replay db record = if Database.applies db record then Database.apply db record

let read path ~f =
  match Wal.replay path ~f with
  | Ok log -> log
  | Error reason -> failwith (path ^ ": " ^ reason)

let open_dir ?policy ?(retention = 4096) dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  (* Before the binary format the base position lived in a text [meta]
     file; without it such a directory would open at the wrong
     position, so it is refused like a text log. *)
  if Sys.file_exists (Filename.concat dir "meta") then
    failwith (dir ^ ": holds a text meta file, which predates this log format");
  let db = Database.create ?policy () in
  let base = (read (snapshot_path dir) ~f:(fun _ -> replay db)).base in
  let tail = Queue.create () in
  let pending = ref 0 in
  (* Records at or before the snapshot's base are in it already: a
     crash between installing a snapshot and emptying the log leaves
     them behind. *)
  let log =
    read (wal_path dir) ~f:(fun position record ->
        if position > base then begin
          replay db record;
          incr pending;
          Queue.add record tail;
          if Queue.length tail > retention then ignore (Queue.pop tail)
        end)
  in
  if log.base > base then
    failwith
      (Printf.sprintf "%s: the log starts at position %d, after its snapshot's %d"
         (wal_path dir) log.base base);
  let writer =
    if log.length = 0 then Wal.Writer.create (wal_path dir) ~base
    else Wal.Writer.append_to (wal_path dir) ~length:log.length
  in
  let position = base + !pending in
  { dir;
    db;
    writer;
    pending = !pending;
    base;
    position;
    tail;
    tail_base = position - Queue.length tail;
    retention
  }

let database t = t.db
let now t = Database.now t.db

let log t record =
  Wal.Writer.write t.writer record;
  t.pending <- t.pending + 1;
  t.position <- t.position + 1;
  Queue.add record t.tail;
  if Queue.length t.tail > t.retention then begin
    ignore (Queue.pop t.tail);
    t.tail_base <- t.tail_base + 1
  end

let write t record =
  Database.validate t.db record;
  log t record;
  Database.apply t.db record

let state_records t =
  let records = ref [] in
  let emit record = records := record :: !records in
  (* Clock first, so replayed inserts land after it and TTL comparisons
     hold. *)
  (match Database.now t.db with
   | Time.Fin _ as now when not (Time.equal now Time.zero) -> emit (Wal.Advance now)
   | Time.Fin _ | Time.Inf -> ());
  List.iter
    (fun name ->
      match Database.table t.db name with
      | None -> ()
      | Some tbl ->
        emit (Wal.Create_table { name; columns = Table.columns tbl });
        (* Only live tuples: expiration is compaction. *)
        Relation.iter
          (fun tuple texp -> emit (Wal.Insert { table = name; tuple; texp }))
          (Table.snapshot tbl ~tau:(Database.now t.db)))
    (Database.table_names t.db);
  List.rev !records

let empty_log t ~base =
  Wal.Writer.close t.writer;
  t.writer <- Wal.Writer.create (wal_path t.dir) ~base;
  t.pending <- 0

(* Rewrites snapshot.log (atomically, header and base included) from the
   given records and leaves wal.log empty; shared by checkpoint and
   reset_to. *)
let install_snapshot t records ~base =
  let tmp = snapshot_path t.dir ^ ".tmp" in
  let snapshot_writer = Wal.Writer.create tmp ~base in
  List.iter (Wal.Writer.write snapshot_writer) records;
  Wal.Writer.close snapshot_writer;
  Sys.rename tmp (snapshot_path t.dir);
  t.base <- base;
  (* Empty the log only after the snapshot is safely in place. *)
  empty_log t ~base

let checkpoint t =
  let records = state_records t in
  install_snapshot t records ~base:t.position;
  List.length records

let close t = Wal.Writer.close t.writer
let wal_records t = t.pending
let position t = t.position
let snapshot_position t = t.base
type shipment =
  | Records of Wal.record list
  | Snapshot of {
      position : int;
      records : Wal.record list;
    }

let ship_from t pos =
  if pos < 0 then Error (Printf.sprintf "negative position %d" pos)
  else if pos > t.position then
    Error
      (Printf.sprintf "position %d is ahead of this log (at %d)" pos t.position)
  else if pos >= t.tail_base then begin
    (* The tail covers positions (tail_base, position]; skip what the
       follower already has. *)
    let records = ref [] in
    let i = ref t.tail_base in
    Queue.iter
      (fun record ->
        if !i >= pos then records := record :: !records;
        incr i)
      t.tail;
    Ok (Records (List.rev !records))
  end
  else Ok (Snapshot { position = t.position; records = state_records t })

let reset_to t ~position records =
  if position < 0 then invalid_arg "Durable.reset_to: negative position";
  (* The log belongs to the history being replaced: empty it first, so
     a crash before the new snapshot is in place leaves the old snapshot
     alone rather than the old log on top of the new one. *)
  empty_log t ~base:t.base;
  install_snapshot t records ~base:position;
  t.position <- position;
  Queue.clear t.tail;
  t.tail_base <- position;
  (* Rebuild the live state in place (the Database.t identity is shared
     with servers and subscriptions, so never swap it out). *)
  List.iter (fun name -> ignore (Database.drop_table t.db name))
    (Database.table_names t.db);
  List.iter (replay t.db) records
