open Expirel_baselines

let test_basics () =
  let w = Timer_wheel.create ~start:0 () in
  Timer_wheel.add w ~at:5 1;
  Timer_wheel.add w ~at:3 2;
  Timer_wheel.add w ~at:5 3;
  Alcotest.(check int) "size" 3 (Timer_wheel.size w);
  Alcotest.(check (list (pair int int))) "advance to 4" [ 3, 2 ]
    (Timer_wheel.advance w ~to_:4);
  Alcotest.(check (list (pair int int))) "advance to 10" [ 5, 1; 5, 3 ]
    (Timer_wheel.advance w ~to_:10);
  Alcotest.(check int) "drained" 0 (Timer_wheel.size w);
  Alcotest.check_raises "backwards rejected"
    (Invalid_argument "Timer_wheel.advance: moving backwards") (fun () ->
      ignore (Timer_wheel.advance w ~to_:2))

let test_overdue () =
  let w = Timer_wheel.create ~start:10 () in
  Timer_wheel.add w ~at:4 7;
  Alcotest.(check (list (pair int int))) "overdue delivered on next advance"
    [ 4, 7 ]
    (Timer_wheel.advance w ~to_:11)

let test_level_crossing () =
  (* Entries far beyond level 0 (64 ticks) and level 1 (4096 ticks). *)
  let w = Timer_wheel.create ~start:0 () in
  Timer_wheel.add w ~at:100 1;
  Timer_wheel.add w ~at:5000 2;
  Timer_wheel.add w ~at:70000 3;
  Alcotest.(check (list (pair int int))) "nothing early" []
    (Timer_wheel.advance w ~to_:99);
  Alcotest.(check (list (pair int int))) "level-1 entry" [ 100, 1 ]
    (Timer_wheel.advance w ~to_:100);
  Alcotest.(check (list (pair int int))) "level-2 entry" [ 5000, 2 ]
    (Timer_wheel.advance w ~to_:6000);
  Alcotest.(check (list (pair int int))) "level-3 entry" [ 70000, 3 ]
    (Timer_wheel.advance w ~to_:70000)

let test_overflow () =
  let w = Timer_wheel.create ~wheel_size:4 ~levels:2 ~start:0 () in
  (* Horizon is 4^2 = 16 ticks; 100 goes to overflow and must still
     surface. *)
  Timer_wheel.add w ~at:100 9;
  Timer_wheel.add w ~at:3 1;
  Alcotest.(check (list (pair int int))) "near entry" [ 3, 1 ]
    (Timer_wheel.advance w ~to_:50);
  Alcotest.(check (list (pair int int))) "overflow entry" [ 100, 9 ]
    (Timer_wheel.advance w ~to_:120)

let test_next_expiry () =
  let w = Timer_wheel.create ~start:0 () in
  Alcotest.(check (option int)) "empty" None (Timer_wheel.next_expiry w);
  Timer_wheel.add w ~at:42 1;
  Timer_wheel.add w ~at:7 2;
  Alcotest.(check (option int)) "min" (Some 7) (Timer_wheel.next_expiry w)

let schedule_gen =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 80)
    (QCheck2.Gen.pair (QCheck2.Gen.int_range 1 9000) (QCheck2.Gen.int_range 0 1000))

let prop_wheel_matches_sort =
  Generators.qtest "wheel delivers every entry at its time, in order"
    schedule_gen (fun entries ->
      let w = Timer_wheel.create ~start:0 () in
      List.iter (fun (at, id) -> Timer_wheel.add w ~at id) entries;
      (* Advance in irregular hops. *)
      let collected = ref [] in
      let rec hop t =
        if t < 10000 then begin
          collected := !collected @ Timer_wheel.advance w ~to_:t;
          hop (t + 617)
        end
      in
      hop 400;
      collected := !collected @ Timer_wheel.advance w ~to_:10000;
      !collected = List.sort compare entries)

(* Regression: advance used to walk every intermediate tick, so a large
   clock jump over a sparse wheel was O(Δt).  A jump of 2e9 ticks over an
   empty wheel must complete (near-)instantly, and entries scattered
   across a huge range must still all surface, in order. *)
let test_large_jump_fast () =
  let w = Timer_wheel.create ~start:0 () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (list (pair int int))) "empty jump delivers nothing" []
    (Timer_wheel.advance w ~to_:2_000_000_000);
  Timer_wheel.add w ~at:2_500_000_000 1;
  Timer_wheel.add w ~at:3_000_000_007 2;
  Timer_wheel.add w ~at:3_500_000_000 3;
  Alcotest.(check (list (pair int int))) "sparse jump delivers all, in order"
    [ 2_500_000_000, 1; 3_000_000_007, 2; 3_500_000_000, 3 ]
    (Timer_wheel.advance w ~to_:3_500_000_001);
  Alcotest.(check int) "drained" 0 (Timer_wheel.size w);
  Alcotest.(check bool) "3.5e9 ticks advanced in well under a second" true
    (Unix.gettimeofday () -. t0 < 1.0)

(* A naive per-tick reference: advance one tick at a time.  Any schedule
   advanced over a large jump must deliver exactly what the reference
   delivers — same entries, same order. *)
let naive_advance w ~to_ =
  let acc = ref [] in
  let now = ref (Timer_wheel.now w) in
  while !now < to_ do
    incr now;
    acc := !acc @ Timer_wheel.advance w ~to_:!now
  done;
  !acc

let jump_gen =
  QCheck2.Gen.pair
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20)
       (QCheck2.Gen.pair
          (QCheck2.Gen.int_range 1 300_000)
          (QCheck2.Gen.int_range 0 1000)))
    (QCheck2.Gen.int_range 100_000 400_000)

let prop_jump_matches_naive =
  Generators.qtest "one large advance == naive per-tick advance" ~count:30
    jump_gen (fun (entries, to_) ->
      let fast = Timer_wheel.create ~start:0 () in
      let slow = Timer_wheel.create ~start:0 () in
      List.iter
        (fun (at, id) ->
          Timer_wheel.add fast ~at id;
          Timer_wheel.add slow ~at id)
        entries;
      Timer_wheel.advance fast ~to_ = naive_advance slow ~to_
      && Timer_wheel.size fast = Timer_wheel.size slow)

let suite =
  [ Alcotest.test_case "add/advance ordering" `Quick test_basics;
    Alcotest.test_case "large jump skips empty ticks" `Quick
      test_large_jump_fast;
    prop_jump_matches_naive;
    Alcotest.test_case "overdue entries" `Quick test_overdue;
    Alcotest.test_case "crossing wheel levels" `Quick test_level_crossing;
    Alcotest.test_case "overflow beyond horizon" `Quick test_overflow;
    Alcotest.test_case "next_expiry" `Quick test_next_expiry;
    prop_wheel_matches_sort ]
