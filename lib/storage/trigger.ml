open Expirel_core

type event = {
  table : string;
  tuple : Tuple.t;
  texp : Time.t;
  fired_at : Time.t;
}

type handler = event -> unit

type entry = {
  name : string;
  table_name : string;
  handler : handler;
}

type registry = { mutable entries : entry list }

let create () = { entries = [] }

(* Registration order is firing order. *)
let register r ~name ~table handler =
  r.entries <-
    List.filter (fun e -> e.name <> name) r.entries
    @ [ { name; table_name = table; handler } ]

let unregister r ~name = r.entries <- List.filter (fun e -> e.name <> name) r.entries
let count r = List.length r.entries

let fire r event =
  List.iter
    (fun e ->
      if e.table_name = "*" || e.table_name = event.table then e.handler event)
    r.entries
