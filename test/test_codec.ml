(* The one binary codec under the wire protocol and the sketch payloads:
   every primitive round-trips (ints and times at their extremes, floats
   bit-exact), every strict prefix of an encoding is an [Error], and
   malformed varints are refused. *)

open Expirel_core
module Gen = QCheck2.Gen

let extremes = [ min_int; max_int; 0; 1; -1; 1 lsl 62 ]

let int_gen : int Gen.t =
  Gen.oneof [ Gen.int_range (-300) 300; Gen.int; Gen.oneofl extremes ]

let time_gen : Time.t Gen.t =
  Gen.oneof [ Gen.return Time.Inf; Gen.map Time.of_int int_gen ]

(* Any 64-bit pattern, NaN payloads and -0.0 included. *)
let float_gen : float Gen.t =
  Gen.oneof
    [ Gen.map Int64.float_of_bits Gen.int64;
      Gen.oneofl [ 0.; -0.; nan; -.nan; infinity; neg_infinity ];
      Gen.map Int64.float_of_bits
        (Gen.oneofl [ 0x7ff0000000000001L; 0xfff8000000000abcL; 0x7ff4000000000000L ]) ]

let string_gen = Gen.string_size ~gen:Gen.char (Gen.int_range 0 200)

let value_gen : Value.t Gen.t =
  Gen.oneof
    [ Gen.return Value.Null;
      Gen.map Value.bool Gen.bool;
      Gen.map Value.int int_gen;
      Gen.map Value.float float_gen;
      Gen.map Value.str string_gen ]

(* Floats compare by bit pattern: NaN <> NaN under [=], and 0. = -0. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> same_float x y
  | _ -> a = b

let roundtrips put get same v =
  match Codec.decode ~what:"test" get (Codec.encode put v) with
  | Ok v' -> same v v'
  | Error _ -> false

let primitives =
  [ Generators.qtest "u8 round-trips" (Gen.int_range 0 255)
      (roundtrips Codec.put_u8 Codec.get_u8 ( = ));
    Generators.qtest "bool round-trips" Gen.bool
      (roundtrips Codec.put_bool Codec.get_bool ( = ));
    Generators.qtest "int round-trips" ~count:1000 int_gen
      (roundtrips Codec.put_int Codec.get_int ( = ));
    Generators.qtest "f64 round-trips bit-exact" ~count:1000 float_gen
      (roundtrips Codec.put_f64 Codec.get_f64 same_float);
    Generators.qtest "string round-trips" string_gen
      (roundtrips Codec.put_str Codec.get_str ( = ));
    Generators.qtest "time round-trips" ~count:1000 time_gen
      (roundtrips Codec.put_time Codec.get_time Time.equal);
    Generators.qtest "value round-trips" ~count:1000 value_gen
      (roundtrips Codec.put_value Codec.get_value same_value);
    Generators.qtest "list and option round-trip"
      (Gen.list_size (Gen.int_range 0 20) (Gen.option value_gen))
      (roundtrips
         (fun b -> Codec.put_list b (fun b -> Codec.put_option b Codec.put_value))
         (fun c -> Codec.get_list c (fun c -> Codec.get_option c Codec.get_value))
         (List.equal (Option.equal same_value))) ]

let test_extremes () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "int %d" n) true
        (roundtrips Codec.put_int Codec.get_int ( = ) n);
      Alcotest.(check bool) (Printf.sprintf "time %d" n) true
        (roundtrips Codec.put_time Codec.get_time Time.equal (Time.of_int n)))
    extremes;
  Alcotest.(check bool) "time inf" true
    (roundtrips Codec.put_time Codec.get_time Time.equal Time.Inf);
  Alcotest.(check string) "inf is one zero byte" "\x00"
    (Codec.encode Codec.put_time Time.Inf);
  Alcotest.(check int) "max_int takes nine bytes" 9
    (String.length (Codec.encode Codec.put_int max_int));
  Alcotest.(check int) "-1 takes one byte" 1
    (String.length (Codec.encode Codec.put_int (-1)))

(* One record of every primitive, so a cut can land anywhere. *)
let put_mixed b (n, t, v, s, f, xs) =
  Codec.put_int b n;
  Codec.put_time b t;
  Codec.put_value b v;
  Codec.put_str b s;
  Codec.put_f64 b f;
  Codec.put_list b (fun b -> Codec.put_option b Codec.put_time) xs

let get_mixed c =
  let n = Codec.get_int c in
  let t = Codec.get_time c in
  let v = Codec.get_value c in
  let s = Codec.get_str c in
  let f = Codec.get_f64 c in
  let xs = Codec.get_list c (fun c -> Codec.get_option c Codec.get_time) in
  (n, t, v, s, f, xs)

let mixed_gen =
  let open Gen in
  let* n = int_gen in
  let* t = time_gen in
  let* v = value_gen in
  let* s = string_gen in
  let* f = float_gen in
  let* xs = list_size (int_range 0 6) (option time_gen) in
  return (n, t, v, s, f, xs)

let prefixes_error =
  Generators.qtest "every strict prefix decodes to Error" ~count:300 mixed_gen
    (fun m ->
      let data = Codec.encode put_mixed m in
      List.for_all
        (fun k ->
          Result.is_error (Codec.decode ~what:"prefix" get_mixed (String.sub data 0 k)))
        (List.init (String.length data) Fun.id))

let test_bad_varints () =
  let rejects label data =
    match Codec.decode ~what:"varint" Codec.get_int data with
    | Error _ -> ()
    | Ok n -> Alcotest.failf "%s decoded to %d" label n
  in
  rejects "a 10-byte varint" (String.make 9 '\x80' ^ "\x01");
  rejects "a 10-byte zero" (String.make 9 '\x80' ^ "\x00");
  (* The ninth byte holds bits 56-62; its "more" bit would carry 63+. *)
  rejects "a ninth byte carrying bits past 63" (String.make 8 '\xff' ^ "\xff");
  rejects "an unterminated varint" "\xff\xff";
  rejects "trailing bytes" "\x02\x00";
  match Codec.decode ~what:"list" (fun c -> Codec.get_list c Codec.get_u8) "\xff\xff\xff\x7f" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a count beyond the payload was accepted"

let suite =
  primitives
  @ [ Alcotest.test_case "ints and times at the extremes" `Quick test_extremes;
      prefixes_error;
      Alcotest.test_case "malformed varints are refused" `Quick test_bad_varints ]
