open Expirel_core
open Expirel_exec

type 'p entry = {
  key : string;
  template : Shape.template;
  mutable payload : 'p option;
}

type 'p t = {
  lru : (string, 'p entry) Lru.t;
  mutex : Mutex.t;
}

type 'p prepared = {
  text : string;
  statement : Ast.statement;
  entry : 'p entry option;
  literals : Value.t array;
}

let create ?on_evict ~capacity () =
  { lru = Lru.create ?on_evict ~capacity (); mutex = Mutex.create () }

let locked t f = Mutex.protect t.mutex f
let length t = locked t (fun () -> Lru.length t.lru)
let key e = e.key

let holds t e test =
  match Lru.find t.lru e.key, e.payload with
  | Some e', Some payload -> e' == e && test payload
  | _ -> false

let plain statement = { text = ""; statement; entry = None; literals = [||] }

(* The statements whose shapes repeat: requests, not definitions. *)
let keeps = function
  | Ast.Query _ | Ast.Explain _ | Ast.Explain_analyze _ | Ast.Insert _ | Ast.Delete _
  | Ast.Advance_to _ | Ast.Tick _ ->
    true
  | Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _ | Ast.Drop_index _
  | Ast.Vacuum | Ast.Checkpoint | Ast.Create_view _ | Ast.Show_view _
  | Ast.Create_trigger _ | Ast.Drop_trigger _ | Ast.Show_triggers
  | Ast.Create_constraint _ | Ast.Drop_constraint _ | Ast.Show_constraints
  | Ast.Refresh_view _ | Ast.Show_tables | Ast.Show_views | Ast.Show_time
  | Ast.Show_horizon _ ->
    false

(* A miss parses outside the lock; of two concurrent misses on one
   shape the first stored entry stays. *)
let prepare t text =
  let parse () = { (plain (Parser.parse_statement text)) with text } in
  match Shape.scan text with
  | None -> parse ()
  | Some { Shape.key; literals } ->
    (match locked t (fun () -> Lru.find t.lru key) with
     | Some e ->
       (match Shape.bind e.template literals with
        | Some statement -> { text; statement; entry = Some e; literals }
        | None -> parse ())
     | None ->
       let statement = Parser.parse_statement text in
       if not (keeps statement) then { (plain statement) with text }
       else begin
         let template, literals = Shape.template statement literals in
         let e = { key; template; payload = None } in
         let e =
           locked t (fun () ->
               match Lru.find t.lru key with
               | Some first -> first
               | None ->
                 Lru.set t.lru key e;
                 e)
         in
         if e.template == template then { text; statement; entry = Some e; literals }
         else { text; statement; entry = None; literals = [||] }
       end)

type 'p reuse =
  | As_is of 'p
  | Rebound of 'p * (Value.t -> Value.t)
  | Absent

let reuse t p ~current ~literals =
  match p.entry with
  | None -> Absent
  | Some e ->
    locked t (fun () ->
        match e.payload with
        | Some payload when current payload ->
          (match Shape.rebinding e.template ~made_from:(literals payload) p.literals with
           | Shape.Same -> As_is payload
           | Shape.Subst f -> Rebound (payload, f)
           | Shape.Replan -> Absent)
        | Some _ | None -> Absent)

let store t p payload =
  Option.iter (fun e -> locked t (fun () -> e.payload <- Some payload)) p.entry
