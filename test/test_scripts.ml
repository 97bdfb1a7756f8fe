(* End-to-end execution of the checked-in .sqlx scripts: every statement
   must succeed, and a handful of landmark outputs are pinned. *)


open Expirel_sqlx

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_script name =
  let path = Filename.concat "scripts" name in
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let run_script name =
  let t = Interp.create () in
  let results = Interp.exec_script t (read_script name) in
  List.iteri
    (fun i result ->
      match result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: statement %d failed: %s" name (i + 1) msg)
    results;
  List.map
    (function
      | Ok outcome -> Interp.render outcome
      | Error _ -> assert false)
    results

let nth_output outputs i = List.nth outputs (i - 1)

let test_news () =
  let outputs = run_script "news.sqlx" in
  Alcotest.(check int) "19 statements" 19 (List.length outputs);
  (* EXPLAIN reports the difference's data-dependent expiration time. *)
  Alcotest.(check bool) "explain texp" true
    (string_contains (nth_output outputs 13) "texp(e) now: 3");
  (* The difference grew by time 5 (Figure 3d: three tuples). *)
  Alcotest.(check bool) "view recomputed at 5" true
    (string_contains (nth_output outputs 15) "(view recomputed)"
     && string_contains (nth_output outputs 15) "| 10   | 3   |");
  (* The AT query sees the known future: only <2> survives past 14. *)
  Alcotest.(check bool) "future query" true
    (string_contains (nth_output outputs 18) "| 15   | 2   |");
  Alcotest.(check string) "clock" "12" (nth_output outputs 19)

let test_sessions () =
  let outputs = run_script "sessions.sqlx" in
  (* The maintained view reflects inserts immediately... *)
  Alcotest.(check bool) "two rows initially" true
    (string_contains (nth_output outputs 7) "| 7   | 2     |");
  (* ...the trigger logged the timeout at its exact time... *)
  Alcotest.(check bool) "timeout logged" true
    (string_contains (nth_output outputs 9) "timeouts: sessions<3, 9> expired at 10");
  (* ...renewal keeps the count... *)
  Alcotest.(check bool) "after renewal" true
    (string_contains (nth_output outputs 11) "| 7   | 2     |");
  (* ...and deletion empties it. *)
  Alcotest.(check bool) "after delete" true
    (string_contains (nth_output outputs 13) "(empty)")

let test_constraints () =
  let outputs = run_script "constraints.sqlx" in
  Alcotest.(check bool) "prediction before" true
    (string_contains (nth_output outputs 7) "seniors: 2 row(s), min 2 — breaks at 25");
  Alcotest.(check bool) "violation reported on advance" true
    (string_contains (nth_output outputs 8) "CONSTRAINT VIOLATED: seniors at 25");
  Alcotest.(check bool) "violated now" true
    (string_contains (nth_output outputs 9) "VIOLATED NOW");
  Alcotest.(check bool) "repaired after insert" true
    (string_contains (nth_output outputs 11) "seniors: 2 row(s), min 2 — breaks at 60");
  Alcotest.(check bool) "dropped constraint vanishes" false
    (string_contains (nth_output outputs 13) "anyone")

let suite =
  [ Alcotest.test_case "news.sqlx runs clean with pinned landmarks" `Quick
      test_news;
    Alcotest.test_case "sessions.sqlx" `Quick test_sessions;
    Alcotest.test_case "constraints.sqlx" `Quick test_constraints ]
