(* Aggregated test entry point: each test module contributes named
   suites and has no top-level effects of its own. *)

let () =
  Alcotest.run "dyngraph"
    (List.concat
       [
         Test_prng.suites;
         Test_exec.suites;
         Test_parallel.suites;
         Test_fleet.suites;
         Test_obs.suites;
         Test_stats.suites;
         Test_graph.suites;
         Test_storage.suites;
         Test_sparse_set.suites;
         Test_markov.suites;
         Test_core.suites;
         Test_fill_edges.suites;
         Test_deltas.suites;
         Test_golden.suites;
         Test_edge_meg.suites;
         Test_node_meg.suites;
         Test_theory.suites;
         Test_mobility.suites;
         Test_random_path.suites;
         Test_gossip.suites;
         Test_dyn_walk.suites;
         Test_adversarial.suites;
         Test_integration.suites;
         Test_simulate.suites;
         Test_serve.suites;
       ])
