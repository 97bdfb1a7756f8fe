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
let meta_path dir = Filename.concat dir "meta"

(* The meta file holds one framed line, like the logs: the snapshot's
   base position.  A missing or torn meta reads as 0 — correct for
   directories created before positions existed, whose snapshots were
   never checkpointed with a nonzero base. *)
let read_meta dir =
  let path = meta_path dir in
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let base =
      match input_line ic with
      | line ->
        (match String.split_on_char ':' line with
         | [ "base"; n ] -> Option.value (int_of_string_opt n) ~default:0
         | _ -> 0)
      | exception End_of_file -> 0
    in
    close_in ic;
    max 0 base
  end

let write_meta dir base =
  let tmp = meta_path dir ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "base:%d\n" base;
  close_out oc;
  Sys.rename tmp (meta_path dir)

(* Replay semantics: a record the state refuses is skipped.  Records
   replayed after a torn checkpoint (snapshot renamed, log not yet
   truncated) repeat ones the snapshot holds, and a snapshot from the
   past carries rows and clock moves the clock has overtaken. *)
let replay db record = if Database.applies db record then Database.apply db record

let open_dir ?policy ?(retention = 4096) dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let db = Database.create ?policy () in
  let base = read_meta dir in
  let (_ : int) = Wal.replay (snapshot_path dir) ~f:(replay db) in
  let tail = Queue.create () in
  let pending =
    Wal.replay (wal_path dir) ~f:(fun record ->
        replay db record;
        Queue.add record tail;
        if Queue.length tail > retention then ignore (Queue.pop tail))
  in
  let position = base + pending in
  { dir;
    db;
    writer = Wal.Writer.append_to (wal_path dir);
    pending;
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

(* Rewrites snapshot.log (atomically) from the given records and leaves
   wal.log empty; shared by checkpoint and reset_to. *)
let install_snapshot t records ~base =
  let tmp = snapshot_path t.dir ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let snapshot_writer = Wal.Writer.append_to tmp in
  List.iter (Wal.Writer.write snapshot_writer) records;
  Wal.Writer.close snapshot_writer;
  Sys.rename tmp (snapshot_path t.dir);
  t.base <- base;
  write_meta t.dir base;
  (* Truncate the log only after the snapshot is safely in place. *)
  Wal.Writer.close t.writer;
  let oc = open_out (wal_path t.dir) in
  close_out oc;
  t.writer <- Wal.Writer.append_to (wal_path t.dir);
  t.pending <- 0

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
  install_snapshot t records ~base:position;
  t.position <- position;
  Queue.clear t.tail;
  t.tail_base <- position;
  (* Rebuild the live state in place (the Database.t identity is shared
     with servers and subscriptions, so never swap it out). *)
  List.iter (fun name -> ignore (Database.drop_table t.db name))
    (Database.table_names t.db);
  List.iter (replay t.db) records
