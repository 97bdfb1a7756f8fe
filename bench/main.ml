(* Benchmark and reproduction harness.

   dune exec bench/main.exe            runs everything
   dune exec bench/main.exe -- <id>    runs one experiment; ids below *)

let experiments =
  [ "fig1", "Figure 1: example relations", Fig_repro.fig1;
    "fig2", "Figure 2: monotonic expressions over time", Fig_repro.fig2;
    "fig3", "Figure 3: non-monotonic expressions", Fig_repro.fig3;
    "tab1", "Table 1: neutral subsets", Fig_repro.tab1;
    "tab2", "Table 2: difference lifetime analysis", Fig_repro.tab2;
    "thm1", "Theorem 1 at scale", Thm_repro.thm1;
    "thm2", "Theorem 2 at scale", Thm_repro.thm2;
    "thm3", "Theorem 3 at scale", Thm_repro.thm3;
    "agg-lifetime", "aggregate expiration strategies", Exp_agg.run_all;
    "index", "expiration index backends", Exp_index.run_all;
    "eager-lazy", "removal policies", Exp_eager_lazy.run_all;
    "patch", "patching vs recomputation", Exp_patch.run_all;
    "antijoin", "physical difference implementations", Exp_antijoin.run_all;
    "schrodinger", "validity intervals vs single texp", Exp_schrodinger.run_all;
    "dist", "loosely-coupled maintenance strategies", Exp_dist.run_all;
    "unreliable", "outages and clock skew", Exp_unreliable.run_all;
    "rewrite", "rewriting to postpone recomputation", Exp_rewrite.run_all;
    "update", "incremental maintenance under updates", Exp_update.run_all;
    "durable", "WAL, checkpoints and recovery", Exp_durable.run_all;
    "access", "secondary indexes on expiring tables", Exp_access.run_all;
    "exec",
    "physical plans: hash joins, live scans, the plan cache, standing \
     queries",
    Exp_exec.run_all;
    "vexec", "vectorized execution over expiration-ordered batches",
    Exp_vexec.run_all;
    "qos", "static validity guarantees", Exp_qos.run_all;
    "ttl", "choosing expiration times for caches", Exp_ttl.run_all;
    "server", "wire-protocol server under concurrent clients", Exp_server.run_all;
    "repl", "replication vs polling over real sockets", Exp_repl.run_all;
    "cluster", "sharded scatter-gather and expiration-aware pruning",
    Exp_cluster.run_all;
    "obs", "tracing, metrics exposition and the slow-query log", Exp_obs.run_all;
    "sketch", "bounded-memory sketches vs exact over expiring streams",
    Exp_sketch.run_all;
    "micro", "Bechamel micro-benchmarks", Bechamel_suite.run ]

let usage () =
  print_endline "usage: main.exe [experiment-id]\navailable experiments:";
  List.iter (fun (id, doc, _) -> Printf.printf "  %-14s %s\n" id doc) experiments

(* Runs one experiment and flushes whatever it recorded (plus wall-clock
   time) to BENCH_<id>.json. *)
let run_one (id, doc, run) =
  Bench_util.reset_recordings ();
  let (), elapsed = Bench_util.time_it run in
  let path = Bench_util.write_json ~experiment:id ~description:doc ~elapsed in
  Printf.printf "[%s] %s\n%!" id path

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter run_one experiments
  | [ _; "help" ] | [ _; "--help" ] -> usage ()
  | [ _; id ] ->
    (match List.find_opt (fun (name, _, _) -> name = id) experiments with
     | Some experiment -> run_one experiment
     | None ->
       Printf.printf "unknown experiment %S\n" id;
       usage ();
       exit 2)
  | _ ->
    usage ();
    exit 2
