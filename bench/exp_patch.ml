(* Experiment exp-patch (Section 3.4.2): recompute-on-expiry versus the
   helper priority queue, as the overlap |R n S| / |R| grows.

   Expected shape: recomputation count and recomputation traffic grow
   with overlap (more critical tuples -> earlier and more frequent
   texp(e)); the patched view does zero recomputations at every overlap,
   paying only the up-front queue, whose size is bounded by |R n S|. *)

open Expirel_core
open Expirel_paper
open Expirel_workload

let traffic_of_schedule ~env ~expr times =
  (* Bytes to re-ship the result at each recomputation. *)
  List.fold_left
    (fun bytes tau ->
      bytes
      + Expirel_dist.Metrics.relation_bytes (Eval.relation_at ~env ~tau expr)
      + Expirel_dist.Metrics.message_overhead)
    0 times

let sweep () =
  Bench_util.section
    "Experiment exp-patch: recomputation vs patching for difference views";
  let rng = Bench_util.rng 40 in
  let horizon = Time.of_int 200 in
  let rows =
    List.map
      (fun overlap ->
        let r, s =
          Gen.overlapping_pair ~rng ~arity:2 ~cardinality:500 ~overlap
            ~values:(Gen.Uniform_value 100_000)
            ~ttl:(Gen.Uniform_ttl (1, 180)) ~now:Time.zero
        in
        let env = Eval.env_of_list [ "R", r; "S", s ] in
        let expr = Algebra.(diff (base "R") (base "S")) in
        let schedule =
          View.maintenance_times ~env ~from:Time.zero ~horizon expr
        in
        let patched =
          Patch.create ~env ~tau:Time.zero ~left:(Algebra.base "R")
            ~right:(Algebra.base "S")
        in
        let recompute_bytes = traffic_of_schedule ~env ~expr schedule in
        let patch_bytes =
          Patch.pending patched * Expirel_dist.Metrics.tuple_bytes
        in
        [ Bench_util.f2 overlap;
          string_of_int (List.length schedule);
          string_of_int recompute_bytes;
          string_of_int (Patch.pending patched);
          string_of_int patch_bytes ])
      [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9 ]
  in
  Bench_util.table
    ~headers:[ "overlap"; "recomputations"; "recompute bytes";
               "patch queue"; "patch bytes (one-off)" ]
    rows;
  print_endline
    "\nShape check: recomputations rise steeply with overlap while the\n\
     patched view never recomputes; its one-off queue cost is bounded by\n\
     |R n S| and soon undercuts cumulative recomputation traffic."

let run_all () = sweep ()
