let () =
  Alcotest.run "expirel"
    [ (* core *)
      "time", Test_time.suite;
      "interval", Test_interval.suite;
      "interval-set", Test_interval_set.suite;
      "value", Test_value.suite;
      "tuple", Test_tuple.suite;
      "predicate", Test_predicate.suite;
      "relation", Test_relation.suite;
      "aggregate", Test_aggregate.suite;
      "algebra", Test_algebra.suite;
      "monotone", Test_monotone.suite;
      "eval", Test_eval.suite;
      "theorems", Test_theorems.suite;
      "validity", Test_validity.suite;
      "view", Test_view.suite;
      "patch", Test_patch.suite;
      "heap", Test_heap.suite;
      "rewrite", Test_rewrite.suite;
      "cost", Test_cost.suite;
      "qos", Test_qos.suite;
      "antijoin", Test_antijoin.suite;
      "maintained", Test_maintained.suite;
      "schrodinger-view", Test_schrodinger_view.suite;
      "explain", Test_explain.suite;
      (* expiration-index substrate *)
      "binary-heap", Test_binary_heap.suite;
      "timer-wheel", Test_timer_wheel.suite;
      "expiration-index", Test_expiration_index.suite;
      (* storage substrate *)
      "table", Test_table.suite;
      "row-map", Test_row_map.suite;
      "trigger", Test_trigger.suite;
      "database", Test_database.suite;
      "access", Test_access.suite;
      "subscription", Test_subscription.suite;
      "rwlock", Test_rwlock.suite;
      "invariant", Test_invariant.suite;
      "wal", Test_wal.suite;
      "durable", Test_durable.suite;
      (* query-language substrate *)
      "lexer", Test_lexer.suite;
      "parser", Test_parser.suite;
      "lower", Test_lower.suite;
      "sql-print", Test_sql_print.suite;
      "interp", Test_interp.suite;
      "plan", Test_plan.suite;
      "scripts", Test_scripts.suite;
      (* loosely-coupled-system substrate *)
      "sim", Test_sim.suite;
      "sim-update", Test_sim_update.suite;
      "sim-unreliable", Test_sim_unreliable.suite;
      (* bounded-memory sketches *)
      "sketch", Test_sketch.suite;
      (* observability *)
      "obs", Test_obs.suite;
      "horizon", Test_horizon.suite;
      (* networked server *)
      "codec", Test_codec.suite;
      "wire", Test_wire.suite;
      "server", Test_server.suite;
      "repl", Test_repl.suite;
      "cluster", Test_cluster.suite;
      (* workloads *)
      "workload", Test_workload.suite ]
