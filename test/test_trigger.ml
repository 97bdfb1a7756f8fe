open Expirel_core
open Expirel_storage

let event table tuple texp fired_at =
  { Trigger.table; tuple; texp = Time.of_int texp; fired_at = Time.of_int fired_at }

let test_dispatch () =
  let r = Trigger.create () in
  let hits = ref [] in
  Trigger.register r ~name:"on_a" ~table:"a" (fun e ->
      hits := ("a:" ^ Tuple.to_string e.Trigger.tuple) :: !hits);
  Trigger.register r ~name:"all" ~table:"*" (fun e ->
      hits := ("*:" ^ e.Trigger.table) :: !hits);
  Trigger.fire r (event "a" (Tuple.ints [ 1 ]) 5 5);
  Trigger.fire r (event "b" (Tuple.ints [ 2 ]) 6 6);
  Alcotest.(check (list string)) "dispatch order"
    [ "a:<1>"; "*:a"; "*:b" ]
    (List.rev !hits)

let test_replace_unregister () =
  let r = Trigger.create () in
  let count = ref 0 in
  Trigger.register r ~name:"x" ~table:"a" (fun _ -> incr count);
  Trigger.register r ~name:"x" ~table:"a" (fun _ -> count := !count + 10);
  Alcotest.(check int) "one registration" 1 (Trigger.count r);
  Trigger.fire r (event "a" (Tuple.ints [ 1 ]) 1 1);
  Alcotest.(check int) "replacement ran" 10 !count;
  Trigger.unregister r ~name:"x";
  Trigger.fire r (event "a" (Tuple.ints [ 1 ]) 1 1);
  Alcotest.(check int) "unregistered silent" 10 !count

let suite =
  [ Alcotest.test_case "table and wildcard dispatch" `Quick test_dispatch;
    Alcotest.test_case "replace and unregister" `Quick test_replace_unregister ]
