let () =
  Alcotest.run "ode"
    (List.concat
       [
         Test_codec.suite;
         Test_util.suite;
         Test_keys.suite;
         Test_page.suite;
         Test_storage.suite;
         Test_bptree.suite;
         Test_value.suite;
         Test_lang.suite;
         Test_catalog.suite;
         Test_eval.suite;
         Test_compile.suite;
         Test_database.suite;
         Test_mvcc.suite;
         Test_query.suite;
         Test_version.suite;
         Test_triggers.suite;
         Test_recovery.suite;
         Test_shell.suite;
         Test_odeset.suite;
         Test_tools.suite;
         Test_interp.suite;
         Test_integration.suite;
         Test_model_db.suite;
         Test_defaults.suite;
         Test_planner.suite;
         Test_stats.suite;
         Test_plans.suite;
         Test_exec_oracle.suite;
         Test_fuzz.suite;
         Test_read_path.suite;
         Test_torn_wal.suite;
         Test_aggregates.suite;
         Test_crash_torture.suite;
         Test_protocol.suite;
         Test_server.suite;
         Test_replication.suite;
         (* Domain-spawning suites must come after every forking suite:
            on OCaml 5.x, once a process has ever created a domain,
            Unix.fork refuses for the rest of its life. *)
         Test_obs.suite;
       ])
