(* The generator is the benchmark's definition: a seed must always yield
   the same op sequence, and each mix must hold the ratios the workload
   documents.  A change to either is a redefinition of the benchmark and
   shows up here first. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let digest_of ops =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Array.to_list
             (Array.map (fun (o : Gen.op) -> Gen.kind_name o.kind ^ " " ^ o.sql) ops))))

(* The first 2000 ops of connection 0 at seed 42.  Update these only
   together with a note that the benchmark was redefined. *)
let pinned =
  [ (Gen.Authz_check, "fce97f1418ae02c1268786a6fa4187fa");
    (Gen.Session_churn, "3697fd3b004898673bbaf4dc01e1986c");
    (Gen.Cluster_fanout, "dfee9034b00c13491fe9c903394bc212") ]

(* Each connection runs the mix's exact counts, so observed kind shares
   over 2 x 20000 ops match the documented shares to within a tenth of
   a percentage point (rounding). *)
let check_mix name (spec : Gen.spec) =
  let ops =
    Array.append
      (Gen.stream spec ~seed:7 ~conn:0 ~ops:20_000)
      (Gen.stream spec ~seed:7 ~conn:1 ~ops:20_000)
  in
  let n = float_of_int (Array.length ops) in
  let total = float_of_int (List.fold_left (fun acc (_, w) -> acc + w) 0 spec.mix) in
  List.iter
    (fun kind ->
      let expected =
        List.fold_left
          (fun acc (c, w) -> if Gen.kind_of_choice c = kind then acc + w else acc)
          0 spec.mix
        |> float_of_int
      in
      let expected = expected /. total in
      let observed =
        float_of_int
          (Array.fold_left (fun acc (o : Gen.op) -> if o.kind = kind then acc + 1 else acc) 0 ops)
        /. n
      in
      check
        (Printf.sprintf "%s: %s share %.4f, mix says %.4f" name (Gen.kind_name kind)
           observed expected)
        (Float.abs (observed -. expected) <= 0.001))
    Gen.kinds

let () =
  List.iter
    (fun (name, w) ->
      let spec = Gen.spec w in
      let first = Gen.stream spec ~seed:42 ~conn:0 ~ops:2000 in
      let again = Gen.stream spec ~seed:42 ~conn:0 ~ops:2000 in
      check (name ^ ": same seed, same ops") (first = again);
      check (name ^ ": another seed, other ops")
        (first <> Gen.stream spec ~seed:43 ~conn:0 ~ops:2000);
      check (name ^ ": the two connections differ")
        (first <> Gen.stream spec ~seed:42 ~conn:1 ~ops:2000);
      let got = digest_of first in
      let want = List.assoc w pinned in
      check (Printf.sprintf "%s: pinned op sequence (got %s)" name got) (got = want);
      check (name ^ ": same seed, same preload")
        (Gen.preload spec ~seed:42 = Gen.preload spec ~seed:42);
      check_mix name spec)
    Gen.workloads;
  if !failures > 0 then exit 1;
  print_endline "perfbench generator: ok"
