(* The table's row map against [Hashtbl], with hashes forced to collide:
   keys share home slots, cluster at the arrays' end so their probe
   chains wrap past it, and keep colliding as the map grows. *)

open Expirel_core
open Expirel_storage

let keys = 48
let tuple k = Tuple.ints [ k ]
let key_of tu = match Tuple.attr tu 1 with Value.Int k -> k | _ -> invalid_arg "key_of"

(* Hashes whose low bits put a key in the first slots or the last ones
   at every size the map reaches; [1 lsl 40 - 1] is the last slot of
   any size, and [1 lsl 40] the first. *)
let hash_choices = [ 0; 1; 2; 3; 5; 7; 14; 15; 30; 31; 62; 63; 127; (1 lsl 40) - 1; 1 lsl 40 ]

(* A write as [Table.insert] makes it: one probe, then the slot found. *)
let put m hash k e =
  let tu = tuple k in
  let i = Row_map.slot m tu ~hash:hash.(k) in
  if Row_map.held m i then Row_map.set_texp m i (Time.of_int e)
  else Row_map.fill m i tu ~hash:hash.(k) (Time.of_int e)

let del m hash k =
  let i = Row_map.slot m (tuple k) ~hash:hash.(k) in
  if Row_map.held m i then Row_map.clear m i

(* As [Table.expire_upto] does: the due tuples are read, then removed. *)
let expire m hash tau =
  let due = Row_map.fold (fun tu e acc -> if Time.(e <= of_int tau) then tu :: acc else acc) m [] in
  List.iter (fun tu -> Row_map.remove m tu ~hash:hash.(key_of tu)) due

(* Every key's lookup, the count and the fold against the model. *)
let check m hash model =
  let fail fmt = Printf.ksprintf failwith fmt in
  if Row_map.length m <> Hashtbl.length model then
    fail "length %d, model %d" (Row_map.length m) (Hashtbl.length model);
  for k = 0 to keys - 1 do
    let got = Row_map.find m (tuple k) ~hash:hash.(k) in
    let want = Option.map Time.of_int (Hashtbl.find_opt model k) in
    if got <> want then fail "key %d: %s, model %s" k
        (Option.fold ~none:"absent" ~some:Time.to_string got)
        (Option.fold ~none:"absent" ~some:Time.to_string want)
  done;
  let held = Row_map.fold (fun tu e acc -> (key_of tu, e) :: acc) m [] in
  let want = Hashtbl.fold (fun k e acc -> (k, Time.of_int e) :: acc) model [] in
  if List.sort compare held <> List.sort compare want then fail "fold differs from the model"

type op =
  | Put of int * int  (* key, texp: an insert or an overwrite *)
  | Del of int
  | Expire of int  (* every key with texp <= tau *)

let op_gen =
  let open QCheck2.Gen in
  frequency
    [ 6, map2 (fun k e -> Put (k, e)) (int_range 0 (keys - 1)) (int_range 0 30);
      3, map (fun k -> Del k) (int_range 0 (keys - 1));
      1, map (fun tau -> Expire tau) (int_range 0 10) ]

let prop_model =
  Generators.qtest "row map = Hashtbl, hashes colliding" ~count:300
    QCheck2.Gen.(
      pair (array_size (return keys) (oneofl hash_choices)) (list_size (int_range 1 200) op_gen))
    (fun (hash, ops) ->
      let m = Row_map.create 4 and model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          (match op with
           | Put (k, e) -> put m hash k e; Hashtbl.replace model k e
           | Del k -> del m hash k; Hashtbl.remove model k
           | Expire tau ->
             expire m hash tau;
             Hashtbl.filter_map_inplace (fun _ e -> if e <= tau then None else Some e) model);
          check m hash model)
        ops;
      true)

(* The cases the property draws, pinned: a chain that wraps past the
   arrays' end loses an entry from its middle, and the map then grows
   with the chain still held. *)
let test_chains () =
  let hash = Array.make keys 0 and model = Hashtbl.create 16 in
  List.iter (fun k -> hash.(k) <- (1 lsl 40) - 1) [ 0; 1; 2 ];
  let m = Row_map.create 8 in
  let put k e = put m hash k e; Hashtbl.replace model k e; check m hash model in
  let del k = del m hash k; Hashtbl.remove model k; check m hash model in
  (* 0, 1 and 2 fill slots 7, 0 and 1; 3, at home in 0, lands in 2. *)
  List.iter (fun k -> put k (10 + k)) [ 0; 1; 2; 3 ];
  del 1;
  put 2 20;
  (* the fifth entry grows the map to 16 slots *)
  List.iter (fun k -> put k k) [ 4; 5; 6; 7; 8 ];
  del 0;
  put 1 1;
  del 3;
  List.iter (fun k -> put k k) [ 9; 10; 11; 12; 13; 14; 15; 16 ];
  List.iter del [ 2; 9; 1 ];
  Alcotest.(check int) "held" 12 (Row_map.length m)

let suite =
  [ prop_model; Alcotest.test_case "a wrapped chain loses its middle, then grows" `Quick test_chains ]
