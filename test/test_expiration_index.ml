open Expirel_core
open Expirel_baselines

let fin = Time.of_int
let backends = [ `Scan; `Heap; `Wheel ]

let backend_name = function
  | `Scan -> "scan"
  | `Heap -> "heap"
  | `Wheel -> "wheel"

let test_lifecycle () =
  List.iter
    (fun backend ->
      let name fmt = Printf.sprintf "%s: %s" (backend_name backend) fmt in
      let idx = Expiration_index.create backend in
      Expiration_index.add idx ~id:1 ~texp:(fin 5);
      Expiration_index.add idx ~id:2 ~texp:(fin 3);
      Expiration_index.add idx ~id:3 ~texp:Time.Inf;
      Alcotest.(check int) (name "size") 3 (Expiration_index.size idx);
      Alcotest.(check (option string)) (name "next expiry") (Some "3")
        (Option.map Time.to_string (Expiration_index.next_expiry idx));
      let due = Expiration_index.expire_upto idx (fin 4) in
      Alcotest.(check (list int)) (name "due at 4") [ 2 ] (List.map fst due);
      Alcotest.(check int) (name "2 remain") 2 (Expiration_index.size idx);
      let due = Expiration_index.expire_upto idx (fin 100) in
      Alcotest.(check (list int)) (name "due at 100") [ 1 ] (List.map fst due);
      Alcotest.(check int) (name "immortal survives") 1 (Expiration_index.size idx))
    backends

let test_reregistration () =
  List.iter
    (fun backend ->
      let name fmt = Printf.sprintf "%s: %s" (backend_name backend) fmt in
      let idx = Expiration_index.create backend in
      Expiration_index.add idx ~id:1 ~texp:(fin 3);
      Expiration_index.add idx ~id:1 ~texp:(fin 9);
      Alcotest.(check int) (name "one live entry") 1 (Expiration_index.size idx);
      Alcotest.(check (list int)) (name "stale time ignored") []
        (List.map fst (Expiration_index.expire_upto idx (fin 5)));
      Alcotest.(check (list int)) (name "fires at the new time") [ 1 ]
        (List.map fst (Expiration_index.expire_upto idx (fin 9))))
    backends

let test_remove () =
  List.iter
    (fun backend ->
      let idx = Expiration_index.create backend in
      Expiration_index.add idx ~id:1 ~texp:(fin 3);
      Expiration_index.remove idx ~id:1;
      Alcotest.(check (list int))
        (backend_name backend ^ ": removed id never fires") []
        (List.map fst (Expiration_index.expire_upto idx (fin 10))))
    backends

(* Random operation sequences: all three backends must expose identical
   observable behaviour. *)
type op =
  | Add of int * int
  | Remove of int
  | Expire of int  (* advance to this tick *)

let op_gen =
  let open QCheck2.Gen in
  frequency
    [ 6, map2 (fun id ttl -> Add (id, ttl)) (int_range 0 20) (int_range 1 40);
      1, map (fun id -> Remove id) (int_range 0 20);
      2, map (fun d -> Expire d) (int_range 0 10) ]

let ops_gen = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 60) op_gen

let run_ops backend ops =
  let idx = Expiration_index.create backend in
  let clock = ref 0 in
  let log = Buffer.create 64 in
  List.iter
    (fun op ->
      match op with
      | Add (id, ttl) -> Expiration_index.add idx ~id ~texp:(fin (!clock + ttl))
      | Remove id -> Expiration_index.remove idx ~id
      | Expire d ->
        clock := !clock + d;
        List.iter
          (fun (id, texp) ->
            Buffer.add_string log
              (Printf.sprintf "%d@%s;" id (Time.to_string texp)))
          (Expiration_index.expire_upto idx (fin !clock)))
    ops;
  Buffer.add_string log (Printf.sprintf "size=%d" (Expiration_index.size idx));
  Buffer.contents log

let prop_backends_agree =
  Generators.qtest "scan, heap and wheel are observationally equal" ~count:300
    ops_gen (fun ops ->
      let scan = run_ops `Scan ops in
      String.equal scan (run_ops `Heap ops) && String.equal scan (run_ops `Wheel ops))

let suite =
  [ Alcotest.test_case "lifecycle on all backends" `Quick test_lifecycle;
    Alcotest.test_case "re-registration overrides" `Quick test_reregistration;
    Alcotest.test_case "remove" `Quick test_remove;
    prop_backends_agree ]
