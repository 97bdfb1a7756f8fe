(* Experiment exp-index (substrate claim, citation [24]): expiration
   indexes make expiration processing cheap.  Loads n registrations and
   advances time in steps, measuring wall-clock per backend, the median
   of 5 fresh builds: the three baselines of [24] (bench/baselines: a
   naive scan, a binary heap, a timing wheel) and Texp_run, the
   texp-ordered run a table's rows and indexes live in, where an advance
   drops a prefix of chunks — loaded by adds in arrival order, and built
   sorted from the same rows.

   Expected shape: heap, wheel and texp_run scale near-linearly and
   beat the naive scan by orders of magnitude at large n, because the
   scan pays O(n) per advance regardless of how few tuples expire. *)

open Expirel_core
open Expirel_baselines
open Expirel_storage
open Expirel_workload

(* A backend loads the registrations into a fresh structure and returns
   its [expire_upto] (the count expired). *)
let baseline backend entries =
  let idx = Expiration_index.create backend in
  List.iter (fun (id, at) -> Expiration_index.add idx ~id ~texp:(Time.of_int at)) entries;
  fun tau -> List.length (Expiration_index.expire_upto idx tau)

let texp_run entries =
  let run = Texp_run.create ~arity:1 [] in
  List.iter (fun (id, at) -> Texp_run.add run (Tuple.ints [ id ]) (Time.of_int at)) entries;
  fun tau -> List.length (Texp_run.expire_upto run tau)

(* The same rows built sorted by [Texp_run.create]: every row folded,
   nothing pending, so the scattered load's expiry reads against it. *)
let texp_run_sorted entries =
  let run =
    Texp_run.create ~arity:1 (List.map (fun (id, at) -> (Tuple.ints [ id ], Time.of_int at)) entries)
  in
  fun tau -> List.length (Texp_run.expire_upto run tau)

(* Each backend's row name, the id its metrics carry, and its build. *)
let backends =
  [ "scan", "scan", baseline `Scan; "heap", "heap", baseline `Heap;
    "wheel", "wheel", baseline `Wheel; "texp_run", "texp_run", texp_run;
    "texp_run (built sorted)", "texp_run_sorted", texp_run_sorted ]

let builds = 5

(* One fresh build: load ms, expire ms, and the count expired. *)
let run_one backend ~n ~steps =
  let rng = Bench_util.rng 20 in
  let entries = Gen.expiry_stream ~rng ~n ~ttl:(Gen.Uniform_ttl (1, 10 * steps)) ~now:0 in
  let expire_upto, load_s = Bench_util.time_it (fun () -> backend entries) in
  let expired = ref 0 in
  let (), expire_s =
    Bench_util.time_it (fun () ->
        for step = 1 to steps do
          expired := !expired + expire_upto (Time.of_int (step * 10))
        done)
  in
  load_s *. 1e3, expire_s *. 1e3, !expired

(* The median of a few runs, and its min-max. *)
let spread xs =
  let sorted = List.sort Float.compare xs in
  (List.nth sorted (List.length sorted / 2), List.hd sorted, List.nth sorted (List.length sorted - 1))

let sweep () =
  Bench_util.section "Experiment exp-index: expiration index backends";
  List.iter
    (fun n ->
      Bench_util.subsection
        (Printf.sprintf "n = %d registrations, 100 advances: median of %d fresh builds (min-max)" n
           builds);
      let rows =
        List.map
          (fun (name, id, backend) ->
            let runs = List.init builds (fun _ -> run_one backend ~n ~steps:100) in
            let _, _, expired = List.hd runs in
            let per_expiration =
              List.map (fun (_, ms, e) -> ms *. 1e6 /. float_of_int (max 1 e)) runs
            in
            let ns, lo, hi = spread per_expiration in
            Bench_util.metric (Printf.sprintf "index_%s_expire_ns_n%d" id n) ns;
            let median f = let m, _, _ = spread (List.map f runs) in Bench_util.f2 m in
            [ name;
              median (fun (ms, _, _) -> ms);
              median (fun (_, ms, _) -> ms);
              string_of_int expired;
              Printf.sprintf "%s (%s-%s)" (Bench_util.f1 ns) (Bench_util.f1 lo) (Bench_util.f1 hi) ])
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
