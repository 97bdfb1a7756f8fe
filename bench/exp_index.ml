(* Experiment exp-index (substrate claim, citation [24]): expiration
   indexes make expiration processing cheap.  Loads n registrations and
   advances time in steps, measuring wall-clock per backend: the three
   baselines of [24] (bench/baselines: a naive scan, a binary heap, a
   timing wheel) and Texp_run, the texp-ordered run a table's rows and
   indexes live in, where an advance drops a prefix of chunks.

   Expected shape: heap, wheel and texp_run scale near-linearly and
   beat the naive scan by orders of magnitude at large n, because the
   scan pays O(n) per advance regardless of how few tuples expire. *)

open Expirel_core
open Expirel_baselines
open Expirel_storage
open Expirel_workload

(* A backend: a fresh structure as its [add] and [expire_upto] (the
   count expired). *)
let baseline backend () =
  let idx = Expiration_index.create backend in
  ( (fun id texp -> Expiration_index.add idx ~id ~texp),
    fun tau -> List.length (Expiration_index.expire_upto idx tau) )

let texp_run () =
  let run = Texp_run.create ~arity:1 [] in
  ( (fun id texp -> Texp_run.add run (Tuple.ints [ id ]) texp),
    fun tau -> List.length (Texp_run.expire_upto run tau) )

let backends =
  [ "scan", baseline `Scan; "heap", baseline `Heap; "wheel", baseline `Wheel;
    "texp_run", texp_run ]

let run_one backend ~n ~steps =
  let rng = Bench_util.rng 20 in
  let entries = Gen.expiry_stream ~rng ~n ~ttl:(Gen.Uniform_ttl (1, 10 * steps)) ~now:0 in
  let add, expire_upto = backend () in
  let (), load_s =
    Bench_util.time_it (fun () ->
        List.iter (fun (id, at) -> add id (Time.of_int at)) entries)
  in
  let expired = ref 0 in
  let (), expire_s =
    Bench_util.time_it (fun () ->
        for step = 1 to steps do
          expired := !expired + expire_upto (Time.of_int (step * 10))
        done)
  in
  load_s, expire_s, !expired

let sweep () =
  Bench_util.section "Experiment exp-index: expiration index backends";
  List.iter
    (fun n ->
      Bench_util.subsection (Printf.sprintf "n = %d registrations, 100 advances" n);
      let rows =
        List.map
          (fun (name, backend) ->
            let load_s, expire_s, expired = run_one backend ~n ~steps:100 in
            [ name;
              Bench_util.f2 (load_s *. 1e3);
              Bench_util.f2 (expire_s *. 1e3);
              string_of_int expired;
              Bench_util.f2 (expire_s *. 1e9 /. float_of_int (max 1 expired)) ])
          backends
      in
      Bench_util.table
        ~headers:[ "backend"; "load ms"; "expire ms"; "expired"; "ns/expiration" ]
        rows)
    [ 1_000; 10_000; 100_000 ];
  print_endline
    "\nShape check: scan's expire cost explodes with n (O(n) per advance);\n\
     heap, wheel and texp_run stay near-constant per expiration."

let run_all () = sweep ()
