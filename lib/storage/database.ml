open Expirel_core

type policy =
  | Eager
  | Lazy

type t = {
  policy : policy;
  tables : (string, Table.t) Hashtbl.t;
  trigger_registry : Trigger.registry;
  mutable clock : Time.t;
  mutable generation : int;
      (* catalog generation: bumped on DDL (table and index changes) so
         cached physical plans can be checked for staleness in O(1) *)
  mutable inserted_total : int;  (* rows accepted since create *)
  mutable expired_total : int;
      (* expirations observed (eagerly at advance, lazily at vacuum) *)
}

let create ?(policy = Eager) () =
  { policy;
    tables = Hashtbl.create 16;
    trigger_registry = Trigger.create ();
    clock = Time.zero;
    generation = 0;
    inserted_total = 0;
    expired_total = 0
  }

let policy db = db.policy
let now db = db.clock
let triggers db = db.trigger_registry
let generation db = db.generation
let bump_generation db = db.generation <- db.generation + 1

(* The guards the typed mutators and {!validate} share, so a record is
   refused with exactly the typed mutator's message. *)
let check_new_table db name =
  if Hashtbl.mem db.tables name then
    invalid_arg (Printf.sprintf "Database.create_table: %s exists" name)

let check_texp db texp =
  if Time.(texp <= db.clock) then
    invalid_arg
      (Printf.sprintf "Database.insert: texp %s <= now %s" (Time.to_string texp)
         (Time.to_string db.clock))

let check_move db tau =
  if Time.is_infinite tau then invalid_arg "Database.advance_to: infinite time"
  else if Time.(tau < db.clock) then
    invalid_arg "Database.advance_to: moving backwards"

let create_table db ~name ~columns =
  check_new_table db name;
  let table = Table.create ~name ~columns () in
  Hashtbl.replace db.tables name table;
  bump_generation db;
  table

let drop_table db name =
  if Hashtbl.mem db.tables name then begin
    Hashtbl.remove db.tables name;
    bump_generation db;
    true
  end
  else false

let table db name = Hashtbl.find_opt db.tables name

let table_exn db name =
  match table db name with
  | Some t -> t
  | None -> raise (Errors.Unknown_relation name)

let table_names db =
  Hashtbl.fold (fun name _ acc -> name :: acc) db.tables []
  |> List.sort String.compare

let pending_expirations db =
  Hashtbl.fold (fun _ t acc -> acc + Table.physical_count t) db.tables 0

let live_rows db =
  Hashtbl.fold
    (fun _ t acc -> acc + Table.live_estimate t ~tau:db.clock)
    db.tables 0

let expiring_within db ~bounds =
  List.map
    (fun name ->
      (name, Table.expiring_within (table_exn db name) ~now:db.clock ~bounds))
    (table_names db)

let inserted_total db = db.inserted_total
let expired_total db = db.expired_total

let insert db name tuple ~texp =
  check_texp db texp;
  Table.insert (table_exn db name) tuple ~texp;
  db.inserted_total <- db.inserted_total + 1

let insert_ttl db name tuple ~ttl =
  if ttl <= 0 then invalid_arg "Database.insert_ttl: ttl <= 0"
  else insert db name tuple ~texp:(Time.add db.clock (Time.of_int ttl))

let insert_values db name values ~texp = insert db name (Tuple.of_list values) ~texp
let delete db name tuple = Table.delete (table_exn db name) tuple

(* Global (texp, table, tuple) order so trigger firings are
   deterministic across tables; nothing is sorted when no trigger
   listens. *)
let fire_expirations db ~fired_at_of events =
  if Trigger.count db.trigger_registry > 0 then
    List.sort
      (fun (e1, n1, t1) (e2, n2, t2) ->
        match Time.compare e1 e2 with
        | 0 ->
          (match String.compare n1 n2 with
           | 0 -> Tuple.compare t1 t2
           | c -> c)
        | c -> c)
      events
    |> List.iter (fun (texp, table_name, tuple) ->
           Trigger.fire db.trigger_registry
             { Trigger.table = table_name; tuple; texp; fired_at = fired_at_of texp })

let collect_expired db tau =
  Hashtbl.fold
    (fun name tbl acc ->
      List.fold_left
        (fun acc (tuple, texp) -> (texp, name, tuple) :: acc)
        acc (Table.expire_upto tbl tau))
    db.tables []

let advance_to db tau =
  check_move db tau;
  (match db.policy with
   | Eager ->
     (* A tuple with texp = e is last visible at e - 1, so everything
        with texp <= tau is due. *)
     let expired = collect_expired db tau in
     db.expired_total <- db.expired_total + List.length expired;
     fire_expirations db ~fired_at_of:(fun texp -> texp) expired
   | Lazy -> ());
  db.clock <- tau

let tick db = advance_to db (Time.succ db.clock)

let vacuum db =
  match db.policy with
  | Eager -> 0
  | Lazy ->
    let expired = collect_expired db db.clock in
    db.expired_total <- db.expired_total + List.length expired;
    fire_expirations db ~fired_at_of:(fun _ -> db.clock) expired;
    List.length expired

let validate db = function
  | Wal.Create_table { name; columns } ->
    check_new_table db name;
    if columns = [] then invalid_arg "Table.create: no columns"
  | Wal.Drop_table name -> ignore (table_exn db name)
  | Wal.Insert { table; tuple; texp } ->
    Table.check_arity (table_exn db table) tuple;
    check_texp db texp
  | Wal.Delete { table; tuple } ->
    if Table.texp_of (table_exn db table) tuple = None then
      invalid_arg
        (Printf.sprintf "Database.delete: %s holds no %s" table
           (Tuple.to_string tuple))
  | Wal.Advance tau -> check_move db tau

let applies db record =
  match validate db record with
  | () -> true
  | exception (Invalid_argument _ | Errors.Unknown_relation _) -> false

let apply db = function
  | Wal.Create_table { name; columns } ->
    let (_ : Table.t) = create_table db ~name ~columns in
    ()
  | Wal.Drop_table name -> ignore (drop_table db name)
  | Wal.Insert { table; tuple; texp } -> insert db table tuple ~texp
  | Wal.Delete { table; tuple } -> ignore (delete db table tuple)
  | Wal.Advance tau -> advance_to db tau

let snapshot db name = Table.snapshot (table_exn db name) ~tau:db.clock

let env db name = Option.map (fun t -> Table.snapshot t ~tau:db.clock) (table db name)

let query ?strategy ?probe db expr =
  Eval.run ?strategy ?probe ~env:(env db) ~tau:db.clock expr
